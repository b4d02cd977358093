"""Unit tests for repro.obs.fairness (JFI, utilization, publication)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.fairness import (
    FairnessScore,
    jain_fairness_index,
    link_utilization,
    publish_fairness,
    score_flows,
)
from repro.obs.metrics import MetricsRegistry


def test_jfi_equal_allocation_is_one():
    assert jain_fairness_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)


def test_jfi_monopoly_is_one_over_n():
    assert jain_fairness_index([7.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)


def test_jfi_empty_and_all_zero_are_vacuously_fair():
    assert jain_fairness_index([]) == 1.0
    assert jain_fairness_index([0.0, 0.0]) == 1.0


def test_jfi_rejects_negative_allocations():
    with pytest.raises(ValueError):
        jain_fairness_index([1.0, -0.5])


@settings(max_examples=50, deadline=None)
@given(
    xs=st.lists(
        st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
        min_size=1,
        max_size=16,
    )
)
def test_property_jfi_bounded_and_scale_invariant(xs):
    jfi = jain_fairness_index(xs)
    n = len(xs)
    assert 1.0 / n - 1e-9 <= jfi <= 1.0 + 1e-9
    # JFI is scale-invariant: doubling every allocation changes nothing.
    assert jain_fairness_index([2 * x for x in xs]) == pytest.approx(
        jfi, rel=1e-9, abs=1e-9
    )


def test_link_utilization_saturated_link_is_one():
    # 125 MB over 1 s on a 1 Gbps link is exactly line rate.
    assert link_utilization(125_000_000, 1e9, 1e9) == pytest.approx(1.0)


def test_link_utilization_rejects_nonpositive_window():
    with pytest.raises(ValueError):
        link_utilization(1.0, 0, 1e9)
    with pytest.raises(ValueError):
        link_utilization(1.0, 1e9, 0)


def test_score_flows_combines_jfi_and_utilization():
    # Two equal flows at 1/4 line rate each: JFI 1, utilization 0.5.
    score = score_flows("t", [31_250_000, 31_250_000], 1e9, 1e9)
    assert isinstance(score, FairnessScore)
    assert score.jfi == pytest.approx(1.0)
    assert score.utilization == pytest.approx(0.5)
    assert score.score == pytest.approx(0.5)
    assert score.goodputs_bps == pytest.approx((250e6, 250e6))


def test_publish_fairness_records_gauges():
    registry = MetricsRegistry()
    score = score_flows("sym", [10_000_000, 30_000_000], 1e9, 1e9)
    returned = publish_fairness(registry, score)
    assert returned is score
    assert registry.gauge("fairness.sym.jfi").value == pytest.approx(score.jfi)
    assert registry.gauge("fairness.sym.utilization").value == pytest.approx(
        score.utilization
    )
    assert registry.gauge("fairness.sym.score").value == pytest.approx(score.score)
    assert math.isfinite(score.jfi) and score.jfi < 1.0  # unequal split


def test_publish_fairness_none_registry_is_passthrough():
    score = score_flows("off", [1.0], 1e9, 1e9)
    assert publish_fairness(None, score) is score


# -- utilization clamping (fluid over-grant) -------------------------------

def test_score_flows_clamps_impossible_utilization():
    # 250 MB over 1 s on a 1 Gbps link is 2x line rate — impossible at a
    # real bottleneck, so the reported utilization clamps to 1.0 while
    # the raw measurement survives and the estimated flag raises.
    score = score_flows("est", [250_000_000], 1e9, 1e9)
    assert score.utilization == 1.0
    assert score.utilization_raw == pytest.approx(2.0)
    assert score.utilization_estimated is True
    assert score.score == pytest.approx(score.jfi)  # clamped input


def test_score_flows_below_line_rate_is_value_preserving():
    # At 50% utilization the clamp is the identity: reported == raw,
    # flag down.  This is why the fairness floors and drift pins are
    # unaffected under the default (packet-level) configuration.
    score = score_flows("ok", [31_250_000, 31_250_000], 1e9, 1e9)
    assert score.utilization == pytest.approx(0.5)
    assert score.utilization_raw == pytest.approx(0.5)
    assert score.utilization_estimated is False


def test_directly_constructed_score_defaults_raw_to_reported():
    # Old-style construction without utilization_raw must keep working:
    # raw falls back to the reported value, flag stays down.
    score = FairnessScore("legacy", (1.0,), jfi=1.0, utilization=0.9)
    assert math.isnan(score.utilization_raw)
    assert score.raw_utilization == pytest.approx(0.9)
    assert score.utilization_estimated is False


def test_publish_fairness_records_raw_and_estimated_gauges():
    registry = MetricsRegistry()
    score = score_flows("over", [250_000_000], 1e9, 1e9)
    publish_fairness(registry, score)
    assert registry.gauge("fairness.over.utilization").value == 1.0
    assert registry.gauge("fairness.over.utilization_raw").value == pytest.approx(2.0)
    assert registry.gauge("fairness.over.utilization_estimated").value == 1.0
    under = score_flows("under", [31_250_000], 1e9, 1e9)
    publish_fairness(registry, under)
    assert registry.gauge("fairness.under.utilization_estimated").value == 0.0
