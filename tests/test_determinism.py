"""Determinism: identical builds must produce identical results.

Reproducibility is a core property of the library — the benchmarks'
value depends on it.  These tests rebuild identical testbeds and assert
event-for-event equal outcomes, including the seeded OS-noise jitter.

The ``test_golden_*`` tests additionally pin the results to a committed
golden file (``tests/golden/fig8_fig9_golden.json``): simulator
fast-path work (event pooling, immediate-queue scheduling, the
Port/PacketStage pipeline) must change wall-clock time only, never a
simulated observable.  If one of these fails after an intentional model
change, regenerate the golden per the note inside the file's directory.
"""

import hashlib
import json
import pathlib

from repro import units
from repro.apps.ping import run_ping
from repro.apps.ttcp import run_ttcp_tcp, run_ttcp_udp
from repro.config import NETEFFECT_10G, VnetTuning
from repro.harness.testbed import build_native, build_vnetp

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "fig8_fig9_golden.json"


def _frames(*testbeds) -> int:
    return sum(h.nic.tx_frames for tb in testbeds for h in tb.hosts)


def test_ping_samples_identical_across_runs():
    samples = []
    for _ in range(2):
        tb = build_vnetp(nic_params=NETEFFECT_10G)
        r = run_ping(tb.endpoints[0], tb.endpoints[1], count=30)
        samples.append(list(r.rtt_ns.samples))
    assert samples[0] == samples[1]
    # And the jitter is real: not all samples identical within a run.
    assert len(set(samples[0])) > 1


def test_tcp_transfer_identical_across_runs():
    results = []
    for _ in range(2):
        tb = build_vnetp(nic_params=NETEFFECT_10G)
        r = run_ttcp_tcp(tb.endpoints[0], tb.endpoints[1], total_bytes=5 * units.MB)
        results.append((r.bytes_moved, r.elapsed_ns))
    assert results[0] == results[1]


def test_udp_goodput_identical_across_runs():
    results = []
    for _ in range(2):
        tb = build_native(nic_params=NETEFFECT_10G)
        r = run_ttcp_udp(tb.endpoints[0], tb.endpoints[1], duration_ns=3 * units.MS)
        results.append((r.bytes_moved, r.elapsed_ns))
    assert results[0] == results[1]


def _golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def test_golden_ping_rtts():
    """Fig. 9-style seeded ping RTTs match the committed golden exactly,
    and so do the summed RTTs and frame count of a 100-ping sweep over
    56/1024/8192-byte payloads."""
    golden = _golden()
    tb = build_vnetp(nic_params=NETEFFECT_10G)
    r = run_ping(tb.endpoints[0], tb.endpoints[1], count=30)
    assert [int(x) for x in r.rtt_ns.samples] == golden["ping_rtt_ns"]
    sim_ns = frames = 0
    for size in (56, 1024, 8192):
        tb = build_vnetp(nic_params=NETEFFECT_10G, tuning=VnetTuning(fluid=False))
        r = run_ping(tb.endpoints[0], tb.endpoints[1], data_size=size, count=100)
        sim_ns += sum(r.rtt_ns.samples)
        frames += _frames(tb)
    assert {"sim_ns": sim_ns, "frames": frames} == golden["fig9_ping_sweep"]


def test_golden_ttcp():
    """Fig. 8-style TCP/UDP transfer observables match the golden exactly."""
    golden = _golden()
    tb = build_vnetp(nic_params=NETEFFECT_10G)
    r = run_ttcp_tcp(tb.endpoints[0], tb.endpoints[1], total_bytes=5 * units.MB)
    assert (r.bytes_moved, r.elapsed_ns) == (
        golden["tcp_bytes_moved"], golden["tcp_elapsed_ns"]
    )
    tb = build_native(nic_params=NETEFFECT_10G)
    r = run_ttcp_udp(tb.endpoints[0], tb.endpoints[1], duration_ns=3 * units.MS)
    assert (r.bytes_moved, r.elapsed_ns) == (
        golden["udp_bytes_moved"], golden["udp_elapsed_ns"]
    )
    # The fig8 quick pair, all-packet: 10 MB TCP then 8 ms of UDP, each
    # on a fresh VNET/P testbed; elapsed times and frames summed.
    tuning = VnetTuning(fluid=False)
    tcp_tb = build_vnetp(nic_params=NETEFFECT_10G, tuning=tuning)
    tcp = run_ttcp_tcp(tcp_tb.endpoints[0], tcp_tb.endpoints[1],
                       total_bytes=10 * units.MB)
    udp_tb = build_vnetp(nic_params=NETEFFECT_10G, tuning=tuning)
    udp = run_ttcp_udp(udp_tb.endpoints[0], udp_tb.endpoints[1],
                       duration_ns=8 * units.MS)
    assert {"sim_ns": tcp.elapsed_ns + udp.elapsed_ns,
            "frames": _frames(tcp_tb, udp_tb)} == golden["fig8_quick"]


def test_golden_trace():
    """The full per-packet span trace of a 5-ping run is bit-identical.

    Every span of every stage — virtio, VMM, core, bridge, host stack,
    NIC, wire — must keep its exact ``(stage, t0, t1, who, where, flow)``
    tuple.  Host ``eth0`` MACs are assigned from a process-global
    counter (label-only; timing is seeded by the stable host *name*), so
    they are normalised before hashing to make the golden independent
    of which tests ran earlier in the process.
    """
    from repro.obs.context import Observability

    golden = _golden()
    tb = build_vnetp(nic_params=NETEFFECT_10G)
    obs = Observability.of(tb.sim)
    obs.spans.enabled = True
    run_ping(tb.endpoints[0], tb.endpoints[1], count=5)
    mac_map = {h.dev.mac: f"hmac{i}" for i, h in enumerate(tb.hosts)}
    lines = []
    breakdown: dict[str, int] = {}
    for s in obs.spans.spans:
        flow = s.flow or ""
        for mac, repl in mac_map.items():
            flow = flow.replace(mac, repl)
        lines.append(f"{s.stage}|{s.t0}|{s.t1}|{s.who}|{s.where}|{flow}")
        breakdown[s.stage] = breakdown.get(s.stage, 0) + (s.t1 - s.t0)
    assert len(lines) == golden["trace_spans"]
    sha = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert sha == golden["trace_sha256"]
    assert breakdown == golden["breakdown_ns"]


def test_flow_calibration_identical_across_processes():
    from repro.harness.calibrate import calibrate_flow_model, clear_cache
    from repro.harness.testbed import build_vnetp as builder

    values = []
    for _ in range(2):
        clear_cache()
        m = calibrate_flow_model("det-check", builder, NETEFFECT_10G)
        values.append((m.alpha_ns, m.beta_Bps))
        clear_cache()
    assert values[0] == values[1]


def test_parallel_matches_serial():
    """The engine acceptance property: fan-out changes wall time only.

    Every figure row produced under ``jobs=4`` must equal the ``jobs=1``
    row — across a packet-level figure, an ablation, and a parameter
    sweep.
    """
    from repro.exec import Engine
    from repro.harness.experiments import abl_yield_strategy, fig09
    from repro.harness.sweep import sweep_host_param

    fig_serial = fig09(sizes=(56, 1024), quick=True, engine=Engine(jobs=1))
    fig_parallel = fig09(sizes=(56, 1024), quick=True, engine=Engine(jobs=4))
    assert fig_serial.rows == fig_parallel.rows

    abl_serial = abl_yield_strategy(quick=True, engine=Engine(jobs=1))
    abl_parallel = abl_yield_strategy(quick=True, engine=Engine(jobs=4))
    assert abl_serial.rows == abl_parallel.rows

    sweep_kwargs = dict(
        path="vnet_costs.copy_bw_Bps",
        values=[0.6e9, 2.4e9],
        nic_params=NETEFFECT_10G,
        ping_count=5,
        udp_ns=2 * units.MS,
    )
    assert (
        sweep_host_param(engine=Engine(jobs=1), **sweep_kwargs)
        == sweep_host_param(engine=Engine(jobs=4), **sweep_kwargs)
    )


def test_cache_warm_run_is_identical_and_executes_nothing(tmp_path):
    """A warm-cache re-run recomputes zero points and reproduces rows."""
    from repro.exec import Engine, ResultCache
    from repro.harness.experiments import fig09

    cache_dir = tmp_path / "cache"
    cold_engine = Engine(jobs=1, cache=ResultCache(cache_dir))
    cold = fig09(sizes=(56,), quick=True, engine=cold_engine)
    assert cold_engine.points_executed > 0

    warm_engine = Engine(jobs=1, cache=ResultCache(cache_dir))
    warm = fig09(sizes=(56,), quick=True, engine=warm_engine)
    assert warm_engine.points_executed == 0
    assert warm_engine.points_cached == cold_engine.points_executed
    assert warm.rows == cold.rows
