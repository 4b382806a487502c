"""Tests that the package's public API surface is importable and coherent."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "0.1.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"{name} listed in __all__ but missing"

    def test_key_entry_points_exposed(self):
        assert callable(repro.load_dataset)
        assert callable(repro.verify_by_enumeration)
        assert callable(repro.max_certified_poisoning)
        assert isinstance(repro.list_datasets(), list)

    def test_quickstart_flow(self):
        """The docstring quickstart must actually run."""
        split = repro.load_dataset("iris", scale=0.3, seed=1)
        engine = repro.CertificationEngine(max_depth=1, domain="box")
        result = engine.certify_point(split.train, split.test.X[0], 1)
        assert isinstance(result, repro.VerificationResult)
        assert result.status in list(repro.VerificationStatus)


@pytest.mark.parametrize(
    "module",
    [
        "repro.api",
        "repro.verify",
        "repro.verify.search",
        "repro.poisoning",
        "repro.runtime",
        "repro.service.server",
    ],
)
def test_module_imports_first_in_fresh_interpreter(module):
    """Each layer imports cleanly as a process's first import (no cycle)."""
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    completed = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
