"""Import hygiene: the package imports with only its declared dependencies."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro


@pytest.mark.parametrize("module", ["networkx", "numpy"])
def test_experiments_import_pulls_in_no(module):
    # pyproject.toml declares no runtime dependencies: neither may ride
    # along (a clean install could not import the package, and every
    # bench pass and CLI run pays the import in set-up time and memory).
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = f"import sys, repro.harness.experiments; print({module!r} in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
