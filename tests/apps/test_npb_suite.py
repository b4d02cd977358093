"""Fig. 14 suite runner: calibration is a function of the flow model."""

from repro.apps.npb import suite
from repro.mpi.transport import FlowModel

_CONFIGS = ("native-1g", "vnetp-1g", "native-10g", "vnetp-10g")


def _models(alpha_ns: int, beta_Bps: float) -> dict[str, FlowModel]:
    return {
        cfg: FlowModel(cfg, alpha_ns=alpha_ns, beta_Bps=beta_Bps, link_bps=10e9)
        for cfg in _CONFIGS
    }


def test_flow_model_compares_by_value():
    a = FlowModel("m", alpha_ns=20_000.7, beta_Bps=1.1e9, link_bps=10e9)
    b = FlowModel("m", alpha_ns=20_000, beta_Bps=1.1e9, link_bps=10e9)
    assert a == b and hash(a) == hash(b)
    assert a != FlowModel("m", alpha_ns=20_000, beta_Bps=1.0e9, link_bps=10e9)


def test_calibration_does_not_depend_on_call_history(monkeypatch):
    slow = _models(80_000, 0.3e9)
    fast = _models(20_000, 1.1e9)
    monkeypatch.setattr(suite, "_CALIBRATION", {})
    fresh = suite.run_cell("is.B.8", slow).native_10g
    monkeypatch.setattr(suite, "_CALIBRATION", {})
    suite.run_cell("is.B.8", fast)
    assert suite.run_cell("is.B.8", slow).native_10g == fresh
