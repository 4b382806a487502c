"""Tests for the example scripts: structure checks, then each one run end to end.

The end-to-end runs use small arguments (about a second each) and turn
``DeprecationWarning`` into an error, so an example cannot quietly depend on
a deprecated API.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES_DIR = REPO_ROOT / "examples"
EXAMPLE_FILES = sorted(EXAMPLES_DIR.glob("*.py"))

#: Small arguments for every example script, keyed by file name (a new
#: example needs an entry here).
EXAMPLE_ARGS = {
    "attack_vs_certify.py": ["--scale", "0.1", "--points", "2", "--depth", "1"],
    "label_flip_audit.py": ["--digits", "2"],
    "medical_robustness_audit.py": ["--patients", "2", "--depth", "1"],
    "mnist_certification.py": ["--digits", "2", "--depth", "1"],
    "quickstart.py": [],
}


class TestExampleScripts:
    def test_at_least_four_examples_exist(self):
        assert len(EXAMPLE_FILES) >= 4
        names = {path.name for path in EXAMPLE_FILES}
        assert "quickstart.py" in names

    @pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.name)
    def test_examples_parse_and_have_docstring(self, path):
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        assert ast.get_docstring(tree), f"{path.name} must document its scenario"

    @pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.name)
    def test_examples_only_use_public_api(self, path):
        """Examples must import from ``repro`` only (plus the standard library)."""
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source)
        allowed_roots = {"repro", "argparse", "__future__", "numpy"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                roots = {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                roots = {(node.module or "").split(".")[0]}
            else:
                continue
            assert roots <= allowed_roots, f"{path.name} imports {roots - allowed_roots}"

    @pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.name)
    def test_examples_are_runnable_scripts(self, path):
        source = path.read_text(encoding="utf-8")
        assert '__name__ == "__main__"' in source

    @pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.name)
    def test_example_runs_end_to_end(self, path):
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        completed = subprocess.run(
            [
                sys.executable,
                "-W",
                "error::DeprecationWarning",
                str(path),
                *EXAMPLE_ARGS[path.name],
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
