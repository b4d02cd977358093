"""The layer map and the stack sampler."""

import copy
import signal
import sys
import time
from pathlib import Path

import pytest

from bench.layers import LAYERS, OTHER, Sampler, layer_of, module_of_path, shares

SRC = Path(__file__).resolve().parents[2] / "src"
MODULES = sorted(module_of_path(p, SRC) for p in (SRC / "repro").rglob("*.py"))


def test_every_repro_module_has_a_layer():
    assert len(MODULES) > 100
    unmapped = [m for m in MODULES if layer_of(m) not in LAYERS]
    assert unmapped == []


def test_every_layer_has_a_module():
    assert {layer_of(m) for m in MODULES} == set(LAYERS)


@pytest.mark.parametrize("module,layer", [
    ("repro", "harness"),
    ("repro.__main__", "harness"),
    ("repro.sim", "sim.core"),
    ("repro.sim.trace", "sim.core"),
    ("repro.sim.fluid", "sim.fluid"),
    ("repro.vnet.fluidpath", "sim.fluid"),
    ("repro.vnet.routing", "vnet.routing"),
    ("repro.vnet.core", "vnet"),
    ("repro.interconnect.gemini", "hw"),
    ("repro.apps.npb.bt", "apps"),
    ("repro.newsubsystem.mod", OTHER),
    ("reproduction", OTHER),
])
def test_longest_prefix_wins(module, layer):
    assert layer_of(module) == layer


class _GrabCaller:
    """``copy.deepcopy`` calls ``__deepcopy__``; keep the frame that did."""

    frame = None

    def __deepcopy__(self, memo):
        _GrabCaller.frame = sys._getframe(1)
        return self


def _repro_function(module_path: str, body: str):
    """A function whose code claims to live at ``src/repro/<module_path>``."""
    namespace = {"copy": copy, "time": time, "_GrabCaller": _GrabCaller}
    code = compile(body, str(SRC / "repro" / module_path), "exec")
    exec(code, namespace)
    return namespace["f"]


def test_stdlib_callee_is_charged_to_the_repro_caller():
    f = _repro_function("vnet/routing.py", "def f():\n    copy.deepcopy(_GrabCaller())\n")
    f()
    innermost = _GrabCaller.frame
    assert innermost.f_code.co_filename == copy.__file__
    assert Sampler(SRC).charge(innermost) == "vnet.routing"


def test_stack_without_repro_frames_is_other():
    assert Sampler(SRC).charge(sys._getframe()) == OTHER


def test_sampler_attributes_a_busy_repro_function():
    spin = _repro_function(
        "proto/tcp.py",
        "def f(seconds):\n"
        "    end = time.perf_counter() + seconds\n"
        "    while time.perf_counter() < end:\n"
        "        pass\n",
    )
    before = signal.getsignal(signal.SIGALRM)
    with Sampler(SRC) as sampler:
        spin(0.3)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    total = sum(sampler.counts.values())
    assert total >= 20
    assert sampler.counts["proto"] >= 0.8 * total


def test_shares_sum_to_one_and_never_read_zero():
    s = shares({"sim.core": 900, "proto": 100})
    assert set(s) == set(LAYERS) | {OTHER}
    assert sum(s.values()) == pytest.approx(1.0)
    assert 0 < s["chaos"] < 0.001
    assert s["sim.core"] == pytest.approx(0.9, abs=0.01)
