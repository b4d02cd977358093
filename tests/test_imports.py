"""Import hygiene: the package imports with only its declared dependencies."""

import os
import subprocess
import sys
from pathlib import Path

import repro


def test_experiments_import_pulls_in_no_networkx():
    # pyproject.toml declares only numpy; networkx must not ride along
    # (a clean install could not import the package, and every bench
    # pass pays the import in its set-up time).
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, repro.harness.experiments; print('networkx' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
