"""Tests for the shared experiment runner plumbing and artifact persistence."""

import numpy as np

from repro.experiments.config import ExperimentConfig
from repro.experiments.reporting import results_directory, save_artifact
from repro.api import CertificationEngine
from repro.experiments.runner import (
    load_experiment_split,
    make_engine,
    run_grid_cell,
    select_test_points,
    summarize_results,
)


def tiny_config() -> ExperimentConfig:
    return ExperimentConfig(
        seed=5,
        n_test_points=2,
        dataset_scales={"iris": 0.3},
        timeout_seconds=10.0,
    )


class TestRunner:
    def test_load_split_respects_scale(self):
        split = load_experiment_split("iris", tiny_config())
        assert len(split.train) + len(split.test) == 45

    def test_select_test_points_deterministic(self):
        config = tiny_config()
        split = load_experiment_split("iris", config)
        first = select_test_points(split, config, "iris")
        second = select_test_points(split, config, "iris")
        assert first.shape == (2, 4)
        assert np.array_equal(first, second)

    def test_select_test_points_caps_at_test_size(self):
        config = tiny_config().with_overrides(n_test_points=10_000)
        split = load_experiment_split("iris", config)
        points = select_test_points(split, config, "iris")
        assert points.shape[0] == len(split.test)

    def test_make_engine_wires_config(self):
        engine = make_engine(3, "box", tiny_config())
        assert isinstance(engine, CertificationEngine)
        assert engine.max_depth == 3
        assert engine.domain == "box"
        assert engine.timeout_seconds == 10.0

    def test_run_grid_cell_and_summary(self):
        config = tiny_config()
        split = load_experiment_split("iris", config)
        points = select_test_points(split, config, "iris")
        cell, results = run_grid_cell("iris", split, points, 1, "box", 1, config)
        assert cell.attempted == len(results) == 2
        assert 0 <= cell.verified <= 2
        assert cell.fraction_verified == cell.verified / 2
        resummarized = summarize_results("iris", "box", 1, 1, results)
        assert resummarized.verified == cell.verified

    def test_summarize_empty(self):
        cell = summarize_results("iris", "box", 1, 1, [])
        assert cell.attempted == 0
        assert cell.fraction_verified == 0.0


class TestReporting:
    def test_results_directory_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "artifacts"))
        directory = results_directory()
        assert directory.exists()
        assert directory.name == "artifacts"

    def test_save_artifact(self, tmp_path):
        path = save_artifact("table1", "hello", base=tmp_path)
        assert path.read_text().strip() == "hello"
        assert path.name == "table1.txt"
