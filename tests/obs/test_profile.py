"""Unit tests for repro.obs.profile (the layer map and the stack sampler)."""

import importlib.util
import json
import signal
import sys
from pathlib import Path

import pytest

import repro
from repro import units
from repro.__main__ import main
from repro.apps.ttcp import run_ttcp_tcp, run_ttcp_udp
from repro.config import NETEFFECT_10G
from repro.harness.testbed import build_vnetp
from repro.obs.profile import (
    LAYERS,
    OTHER,
    PREFIXES,
    Sampler,
    layer_of,
    module_of_path,
    shares,
)
from repro.sim.core import Simulator

SRC_ROOT = Path(repro.__file__).resolve().parents[1]
REPO_ROOT = Path(__file__).resolve().parents[2]


def _fig8_quick():
    """The fig8 quick pair's simulated observables (CI's overhead gate)."""
    sim_ns = frames = events = 0
    for run, kw in ((run_ttcp_tcp, {"total_bytes": 10 * units.MB}),
                    (run_ttcp_udp, {"duration_ns": 8 * units.MS})):
        tb = build_vnetp(nic_params=NETEFFECT_10G)
        sim_ns += run(*tb.endpoints[:2], **kw).elapsed_ns
        frames += sum(h.nic.tx_frames.value for h in tb.hosts)
        events += tb.sim.events_processed
    return sim_ns, frames, events


# -- the layer map ---------------------------------------------------------

def test_layer_of_longest_prefix():
    assert layer_of("repro.vnet.routing") == "vnet.routing"
    assert layer_of("repro.vnet.core") == "vnet"
    assert layer_of("repro.vnet.fluidpath") == "sim.fluid"
    assert layer_of("repro.sim.pipeline") == "sim.pipeline"
    assert layer_of("repro.sim.primitives") == "sim.core"
    # The bare package root module is harness; an unmapped subpackage
    # reads other instead of falling back to that entry.
    assert layer_of("repro") == "harness"
    assert layer_of("repro.newpkg.mod") == OTHER
    assert layer_of("json.decoder") == OTHER


def test_module_of_path():
    assert module_of_path(SRC_ROOT / "repro/vnet/core.py", SRC_ROOT) == "repro.vnet.core"
    assert module_of_path(SRC_ROOT / "repro/obs/__init__.py", SRC_ROOT) == "repro.obs"
    assert module_of_path(json.__file__, SRC_ROOT) is None


def test_layer_map_matches_bench():
    """The benchmark's copy of the map names the same layers."""
    spec = importlib.util.spec_from_file_location(
        "_bench_layers", REPO_ROOT / "bench" / "layers.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert bench.LAYERS == LAYERS
    assert bench.PREFIXES == PREFIXES
    assert bench.OTHER == OTHER


def test_shares_sum_to_one_and_never_zero():
    out = shares({"sim.core": 30, "proto": 10, "not-a-layer": 5})
    assert set(out) == {*LAYERS, OTHER}
    assert sum(out.values()) == pytest.approx(1.0)
    assert min(out.values()) > 0
    assert out["sim.core"] > out["proto"] > out["hw"]


# -- the sampler -----------------------------------------------------------

def test_charge_live_frame_inside_repro_function():
    """A frame under a test callback charges the kernel frame that called it."""
    sampler = Sampler(SRC_ROOT)
    sim = Simulator()
    seen = []
    evt = sim.timeout(5)
    evt.callbacks.append(lambda _e: seen.append(sampler.charge(sys._getframe())))
    sim.run()
    assert seen == ["sim.core"]
    # Outside any repro function the stack has no repro frame.
    assert sampler.charge(sys._getframe()) == OTHER


def test_exit_restores_handler_and_disarms_timer():
    def previous(signum, frame):  # pragma: no cover - never fires
        pass

    original = signal.signal(signal.SIGALRM, previous)
    try:
        with Sampler(SRC_ROOT) as sampler:
            assert signal.getsignal(signal.SIGALRM) == sampler._on_signal
            assert signal.getitimer(signal.ITIMER_REAL)[1] > 0
        assert signal.getsignal(signal.SIGALRM) is previous
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    finally:
        signal.signal(signal.SIGALRM, original)


def _ticker(sim, n, interval, name):
    def proc(sim):
        for _ in range(n):
            yield sim.timeout(interval)
    return sim.process(proc(sim), name=name)


def test_run_until_event_variant_and_return_value():
    """run(until=event) under the sampler returns the event's value and
    leaves the rest of the schedule for a later run."""
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(25)
        return "payload"

    _ticker(sim, 5, 100, "bg.proc")
    done = sim.process(proc(sim), name="target.proc")
    with Sampler(SRC_ROOT):
        assert sim.run(until=done) == "payload"
        assert sim.now == 25
        first = sim.events_processed
        assert first > 0
        sim.run()  # drain the background ticker, still sampled
    assert sim.now == 500
    assert sim.events_processed > first


def test_run_to_deadline_sets_now_and_counts():
    """A deadline run under the sampler stops at the deadline and
    processes exactly the events an unsampled run does."""
    def deadline_run(sampled):
        sim = Simulator()
        _ticker(sim, 10, 10, "deadline.proc")
        if sampled:
            with Sampler(SRC_ROOT):
                sim.run(until=55)
        else:
            sim.run(until=55)
        return sim.now, sim.events_processed

    now, events = deadline_run(True)
    assert now == 55
    assert events > 0
    assert (now, events) == deadline_run(False)


def test_crash_propagates_through_profiled_loop():
    sim = Simulator()

    def boom(sim):
        yield 5
        raise RuntimeError("kaboom")

    sim.process(boom(sim), name="crash.proc")
    before = signal.getsignal(signal.SIGALRM)
    with pytest.raises(RuntimeError, match="kaboom"):
        with Sampler(SRC_ROOT):
            sim.run()
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_profiled_run_is_schedule_identical():
    plain = _fig8_quick()
    sampler = Sampler(SRC_ROOT)
    with sampler:
        sampled = _fig8_quick()
    assert sampled == plain
    assert sum(sampler.counts.values()) == sum(sampler.code_counts.values()) > 0


def test_collapsed_stacks_format():
    sampler = Sampler(SRC_ROOT)
    sim = Simulator()

    def sample_three_times(_evt):
        for _ in range(3):
            sampler._on_signal(signal.SIGALRM, sys._getframe())

    sim.timeout(5).callbacks.append(sample_three_times)
    sim.run()
    # Three samples under the kernel loop, one with no repro frame.
    sampler._on_signal(signal.SIGALRM, sys._getframe())
    assert sampler.collapsed().splitlines() == [
        "sim.core;repro.sim.core:Simulator.run 3",
        "other 1",
    ]


def test_event_counts_reconcile_with_events_processed(tmp_path):
    """``obs profile --quick`` reports the pair's kernel events, and its
    layer shares sum to one."""
    folded, report = tmp_path / "p.folded", tmp_path / "p.json"
    assert main(["obs", "profile", "--quick",
                 "--collapsed", str(folded), "--json", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["events"] == _fig8_quick()[2]
    assert sum(data["shares"].values()) == pytest.approx(1.0)
    assert sum(data["samples"].values()) > 0
    assert data["annotations"]["flowcache_hits"] > 0
    for line in folded.read_text().splitlines():
        stack, weight = line.rsplit(" ", 1)
        assert stack == OTHER or stack.split(";")[0] in LAYERS
        assert weight.isdigit()
