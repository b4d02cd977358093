"""Unit tests for the fluid fast path: solver, transitions, stride clipping.

The integration half (statistical validation against all-packet golden
runs, chaos determinism) lives in ``tests/vnet/test_fluid_hybrid.py``;
this file exercises :mod:`repro.sim.fluid` in isolation.
"""

from types import SimpleNamespace

from repro.config import VnetTuning
from repro.sim import Simulator
from repro.sim.fluid import FluidFlow, FluidRegion, fluid_region_of, max_min_rates


# --- max-min fair solver --------------------------------------------------------

def test_solver_empty():
    assert max_min_rates([], [], {}) == []


def test_solver_flow_without_links_is_demand_limited():
    rates = max_min_rates([3.0], [frozenset()], {"L": 100.0})
    assert rates == [3.0]


def test_solver_unknown_link_token_is_demand_limited():
    # Membership names a link no capacity is known for: nothing to share.
    rates = max_min_rates([7.0], [frozenset({"ghost"})], {"L": 1.0})
    assert rates == [7.0]


def test_solver_equal_split_on_shared_bottleneck():
    rates = max_min_rates(
        [10.0, 10.0],
        [frozenset({"L"}), frozenset({"L"})],
        {"L": 10.0},
    )
    assert rates == [5.0, 5.0]


def test_solver_water_filling_frees_capacity():
    # A demand-limited flow's leftover capacity goes to the greedy flow.
    rates = max_min_rates(
        [2.0, 100.0],
        [frozenset({"L"}), frozenset({"L"})],
        {"L": 9.0},
    )
    assert rates == [2.0, 7.0]


def test_solver_parking_lot():
    # Classic parking-lot: f1 on L1, f2 on L1+L2, f3 on L2.
    # L2 (cap 6) is tightest: f2 and f3 get 3 each; f1 takes the rest of L1.
    rates = max_min_rates(
        [100.0, 100.0, 100.0],
        [frozenset({"L1"}), frozenset({"L1", "L2"}), frozenset({"L2"})],
        {"L1": 10.0, "L2": 6.0},
    )
    assert rates == [7.0, 3.0, 3.0]


def test_solver_never_exceeds_demand():
    rates = max_min_rates(
        [1.0, 2.0, 3.0],
        [frozenset({"L"})] * 3,
        {"L": 100.0},
    )
    assert rates == [1.0, 2.0, 3.0]


# --- region singleton and knobs -------------------------------------------------

def test_region_absent_by_default():
    assert fluid_region_of(Simulator()) is None


def test_ensure_is_per_simulator_singleton():
    sim = Simulator()
    region = FluidRegion.ensure(sim, VnetTuning())
    assert fluid_region_of(sim) is region
    assert FluidRegion.ensure(sim, VnetTuning()) is region
    assert fluid_region_of(Simulator()) is None  # other sims unaffected


def test_env_override_enables_fluid(monkeypatch):
    monkeypatch.delenv("REPRO_FLUID", raising=False)
    assert VnetTuning().fluid is False
    monkeypatch.setenv("REPRO_FLUID", "1")
    assert VnetTuning().fluid is True
    monkeypatch.setenv("REPRO_FLUID", "0")
    assert VnetTuning().fluid is False


# --- transition bookkeeping -----------------------------------------------------

def _region():
    return FluidRegion.ensure(Simulator(), VnetTuning())


def test_transitions_sorted_and_bisected():
    region = _region()
    region.note_transitions([5_000, 1_000, 3_000])
    assert region._transitions == [1_000, 3_000, 5_000]
    assert region.next_transition_after(0) == 1_000
    # Strictly after: a stride starting exactly at a transition instant
    # is clipped to the *next* one.
    assert region.next_transition_after(1_000) == 3_000
    assert region.next_transition_after(5_000) is None


def test_blackout_windows():
    region = _region()
    region.note_transitions([], blackouts=[(100, 200), (500, None)])
    assert not region.in_blackout(99)
    assert region.in_blackout(100)
    assert region.in_blackout(199)
    assert not region.in_blackout(200)       # half-open [start, stop)
    assert region.in_blackout(10_000_000)    # open-ended fault never heals


def test_horizon_rejects_blackouts_and_imminent_transitions():
    region = _region()
    region.note_transitions([region.MIN_STRIDE_NS // 2],
                            blackouts=[(1_000_000, 2_000_000)])
    assert not region._horizon_ok(0)                  # transition too close
    assert not region._horizon_ok(1_500_000)          # inside the fault window
    assert region._horizon_ok(3_000_000)


# --- stride sizing --------------------------------------------------------------

def _fake_flow(rate_Bps=1e9, pending=10_000_000, rcvbuf=256 * 1024, queued=0):
    conn = SimpleNamespace(app_written=pending, snd_nxt=0)
    peer = SimpleNamespace(rcvbuf=rcvbuf, recv_available=queued)
    flow = FluidFlow(conn, peer, path=None, demand_Bps=rate_Bps, captured_ns=0)
    flow.rate_Bps = rate_Bps
    return flow


def test_stride_end_defaults_to_max_stride():
    region = _region()
    flow = _fake_flow(rcvbuf=1 << 40)  # effectively unbounded receiver
    region.active.append(flow)
    assert region._stride_end(0) == region.MAX_STRIDE_NS


def test_stride_end_half_fills_receive_buffer():
    # 1 B/ns against a 256 KiB buffer: half-fill is 131072 ns (+1 rounding).
    region = _region()
    region.active.append(_fake_flow(rate_Bps=1e9, rcvbuf=256 * 1024))
    assert region._stride_end(0) == 131_073


def test_stride_end_never_crosses_a_declared_transition():
    region = _region()
    region.active.append(_fake_flow())
    region.note_transitions([40_000])
    assert region._stride_end(0) == 40_000
    # Starting exactly at the transition, the next one (or the normal
    # bounds) applies — never a zero-length stride.
    assert region._stride_end(40_000) > 40_000


def test_stride_end_short_retry_when_receiver_full():
    region = _region()
    region.active.append(_fake_flow(rcvbuf=4096, queued=4096))
    assert region._stride_end(0) == region.MIN_STRIDE_NS


def test_stride_end_clips_to_data_exhaustion():
    region = _region()
    region.active.append(_fake_flow(rate_Bps=1e9, pending=10_000,
                                    rcvbuf=1 << 40))
    # 10 000 bytes at 1 B/ns: drained after ~10 µs, release lands on time.
    assert region._stride_end(0) == 10_001
