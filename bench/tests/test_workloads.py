"""Seeded inputs and output checks of the benchmark workloads."""

import pytest

from bench import workloads
from bench.workloads import WORKLOADS, check, digest, inputs


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_regenerates_identical_inputs(name):
    assert inputs(name, 7) == inputs(name, 7)
    assert digest(inputs(name, 7)) == digest(inputs(name, 7))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seeds_0_and_1_differ(name):
    assert digest(inputs(name, 0)) != digest(inputs(name, 1))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_point_keys_are_unique(name):
    keys = [spec["key"] for spec in inputs(name, 0)]
    assert len(keys) == len(set(keys))


def _bulk_row(spec):
    return {"tcp_bytes": spec["tcp_bytes"], "tcp_mbps": 900.0, "udp_mbps": 950.0,
            "line_mbps": 1000.0}


def _fixed_bw():
    spec = next(s for s in inputs("contention", 0) if s["fn"] == "fixed_bw")
    row = {"jfi": 0.9999, "utilization": 0.889}
    metrics = {"fairness.fixed_bw.2.utilization_raw": {"type": "gauge", "value": 0.889}}
    return spec, row, metrics


def test_good_rows_pass():
    spec = inputs("bulk", 0)[0]
    assert check(spec, _bulk_row(spec), {}) == []
    assert check(*_fixed_bw()) == []


def test_doctored_rows_count_as_failed():
    spec = inputs("bulk", 0)[0]
    short = dict(_bulk_row(spec), tcp_bytes=spec["tcp_bytes"] - 1)
    fspec, row, metrics = _fixed_bw()
    unfair = dict(row, jfi=0.90)
    assert check(spec, short, {})
    assert check(fspec, unfair, metrics)


@pytest.mark.parametrize("fn,row,metrics", [
    ("bulk", {"udp_mbps": 1000.5}, {}),
    ("ping", {"replies": 199}, {}),
    ("ping", {"max_rtt_us": float("inf")}, {}),
    ("fixed_bw", {"utilization": 0.79}, {}),
    ("background_udp", {},
     {"fairness.background_udp.30.utilization_raw": {"type": "gauge", "value": 1.01}}),
    ("partition", {"failback_ms": -1.0}, {}),
    ("latbw", {"pingpong_bw_MBps": 0.0}, {}),
    ("provision", {"flowcache_hit_ratio": 0.89}, {}),
    ("provision", {"rtt_ns": [1e5, float("nan"), 1e5]}, {}),
])
def test_each_invariant_catches_a_bad_value(fn, row, metrics):
    good = {
        "bulk": lambda s: _bulk_row(s),
        "ping": lambda s: {"replies": s["count"], "avg_rtt_us": 50.0, "min_rtt_us": 40.0,
                           "max_rtt_us": 60.0},
        "fixed_bw": lambda s: _fixed_bw()[1],
        "background_udp": lambda s: {"jfi": 0.8, "utilization": 0.89},
        "partition": lambda s: {"detection_ms": 1.8, "recovery_ms": 1.9, "failback_ms": 1.6},
        "latbw": lambda s: {"n_procs": 8, "pingpong_bw_MBps": 500.0, "pingpong_lat_us": 60.0},
        "provision": lambda s: {"routes_total": 100, "converged_ns": 5e6, "rtt_ns": [1e5] * 3,
                                "flowcache_hit_ratio": 0.95},
    }[fn]
    spec = next(s for name in WORKLOADS for s in inputs(name, 0) if s["fn"] == fn)
    assert check(spec, good(spec), {}) == []
    assert check(spec, {**good(spec), **row}, metrics)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_input_becomes_a_point(name):
    from bench.points import make_point

    for spec in inputs(name, 0):
        make_point(name, spec)


def test_fluid_can_capture_in_bulk_but_not_in_latency():
    from repro.config import default_tuning

    min_bytes = default_tuning().fluid_min_bytes
    assert max(workloads.IMB_SIZES) < min_bytes <= min(workloads.BULK_IMB_SIZES)


@pytest.mark.parametrize("seed", range(20))
def test_provision_pairs_cross_pods(seed):
    for spec in inputs("provision", seed):
        pod = workloads.fat_tree_pod_size(spec["n_hosts"])
        for a, b in spec["pairs"]:
            assert 0 <= a < spec["n_hosts"] and 0 <= b < spec["n_hosts"]
            assert a // pod != b // pod


@pytest.mark.parametrize("n_hosts", workloads.PROVISION_HOSTS)
def test_pod_size_matches_the_generator(n_hosts):
    from repro.topo import TopoSpec, generate

    topo = generate(TopoSpec(kind="fat-tree", n_hosts=n_hosts))
    pod = workloads.fat_tree_pod_size(n_hosts)
    assert all(topo.hosts[i].rack == f"pod{i // pod}" for i in range(n_hosts))
