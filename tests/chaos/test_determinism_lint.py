"""The determinism linter passes on the tree and catches counterexamples."""

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]

spec = importlib.util.spec_from_file_location(
    "check_determinism", REPO / "tools" / "check_determinism.py"
)
check_determinism = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_determinism)


def test_tree_is_clean():
    assert check_determinism.check_tree(REPO) == []


COUNTEREXAMPLE = """\
import random
import time
import numpy as np


def stamp():
    return time.time()


def jitter():
    rng = np.random.default_rng()
    return rng.random() + random.random()
"""


def test_seeded_counterexample_fails():
    findings = check_determinism.check_source(COUNTEREXAMPLE, "evil.py")
    assert len(findings) == 3
    joined = "\n".join(findings)
    assert "[time.time]" in joined
    assert "[unseeded-default-rng]" in joined
    assert "[random-global]" in joined
    assert all(f.startswith("evil.py:") for f in findings)


def test_seeded_calls_are_fine():
    ok = """\
import random
import numpy as np

rng = np.random.default_rng(42)
r = random.Random(7)
random.seed(0)
"""
    assert check_determinism.check_source(ok, "fine.py") == []


PACKAGE_COUNTEREXAMPLE = """\
import numpy
import numpy.random as npr
from numpy.random import default_rng
from repro.sim.rng import Rng
from repro.sim import rng as rng_mod


def draws():
    return Rng().random() + Rng(None).random() + rng_mod.Rng(seed=None).random()
"""


def test_numpy_imports_and_unseeded_rng_fail_in_package():
    findings = check_determinism.check_source(PACKAGE_COUNTEREXAMPLE, "src/repro/evil.py")
    joined = "\n".join(findings)
    assert joined.count("[numpy-import]") == 3
    assert joined.count("[unseeded-rng]") == 3
    assert len(findings) == 6


def test_numpy_import_only_flagged_in_package():
    # Tests and tools may import numpy (it cross-checks the port).
    src = "import numpy as np\nfrom numpy import random\n"
    assert len(check_determinism.check_source(src, "src/repro/sim/x.py")) == 2
    assert check_determinism.check_source(src, "tests/sim/test_rng.py") == []


def test_seeded_rng_is_fine():
    ok = """\
from repro.sim.rng import Rng

a = Rng(0)
b = Rng([7, 3])
c = Rng(seed=5)
"""
    assert check_determinism.check_source(ok, "src/repro/fine.py") == []


def test_allowlist_respected():
    src = "import time\nt = time.time()\n"
    assert check_determinism.check_source(src, "src/repro/__main__.py") == []
    assert check_determinism.check_source(src, "src/repro/other.py") != []


def test_main_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nt = time.time()\n")
    good = tmp_path / "good.py"
    good.write_text("x = 1\n")
    assert check_determinism.main([str(good)]) == 0
    assert check_determinism.main([str(bad)]) == 1
    cap = capsys.readouterr()
    assert "[time.time]" in cap.err
    assert "1 determinism problem(s)" in cap.err


GC_COUNTEREXAMPLE = """\
import gc
import weakref
from weakref import WeakValueDictionary


class Buffer:
    def __del__(self):
        release(self)


def settle():
    gc.collect()
    gc.callbacks.append(lambda phase, info: None)
"""


def test_gc_observers_fail_in_package():
    findings = check_determinism.check_source(GC_COUNTEREXAMPLE, "src/repro/evil.py")
    joined = "\n".join(findings)
    assert joined.count("[weakref]") == 2
    assert joined.count("[finalizer]") == 1
    assert joined.count("[gc]") == 2
    assert len(findings) == 5


def test_gc_observers_only_flagged_in_package():
    # Tests may hold weak references to check that the collector freed something.
    assert check_determinism.check_source(GC_COUNTEREXAMPLE, "tests/exec/test_x.py") == []


def test_gc_allowed_only_in_engine():
    src = "import gc\ngc.freeze()\n"
    assert check_determinism.check_source(src, "src/repro/exec/engine.py") == []
    assert check_determinism.check_source(src, "src/repro/exec/cache.py") != []
    # The engine's allowance covers gc calls, not finalizers or weak references.
    assert check_determinism.check_source(
        "import weakref\n", "src/repro/exec/engine.py"
    ) != []
