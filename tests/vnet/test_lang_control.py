"""Tests for the VNET control language and control component."""

import sys

import pytest

from repro.config import BROADCOM_1G
from repro.harness.testbed import build_vnetp
from repro.vnet.control import ControlError, VnetControl
from repro.vnet.lang import (
    AddInterface,
    AddLink,
    AddRoute,
    DelLink,
    DelRoute,
    ListCmd,
    ParseError,
    parse_config,
    parse_line,
)
from repro.vnet.overlay import DEFAULT_VNET_PORT, DestType, LinkProto


# --- parser ------------------------------------------------------------------

def test_parse_add_interface():
    cmd = parse_line("add interface if0 mac 52:00:00:00:00:01")
    assert isinstance(cmd, AddInterface)
    assert cmd.spec.name == "if0"
    assert cmd.spec.mac == "52:00:00:00:00:01"


def test_parse_add_udp_link_with_port():
    cmd = parse_line("add link peer udp 10.0.0.2:7777")
    assert isinstance(cmd, AddLink)
    assert cmd.spec.proto is LinkProto.UDP
    assert cmd.spec.dst_ip == "10.0.0.2"
    assert cmd.spec.dst_port == 7777


def test_parse_add_link_default_port():
    cmd = parse_line("add link peer tcp 10.0.0.9")
    assert cmd.spec.proto is LinkProto.TCP
    assert cmd.spec.dst_port == DEFAULT_VNET_PORT


def test_parse_direct_link():
    cmd = parse_line("add link exitpoint direct")
    assert cmd.spec.proto is LinkProto.DIRECT


def test_parse_add_route_to_link():
    cmd = parse_line("add route src any dst 52:00:00:00:00:02 link peer")
    assert isinstance(cmd, AddRoute)
    assert cmd.route.dest_type is DestType.LINK
    assert cmd.route.src_mac == "any"


def test_parse_add_route_to_interface():
    cmd = parse_line("add route src 52:00:00:00:00:01 dst 52:00:00:00:00:02 interface if0")
    assert cmd.route.dest_type is DestType.INTERFACE


def test_parse_add_route_normalises_and_interns_macs():
    cmd = parse_line("add route src ANY dst 52:00:00:00:00:AB link peer")
    assert cmd.route.src_mac == "any"
    assert cmd.route.dst_mac is sys.intern("52:00:00:00:00:ab")


@pytest.mark.parametrize("line", [
    "add route src any dst 52:00:00:00:00:zz link peer",
    "add route src 52:00:00:00:00 dst any interface if0",
    "del route src any dst not-a-mac",
])
def test_parse_rejects_malformed_route_macs(line):
    with pytest.raises(ValueError, match="malformed MAC"):
        parse_line(line)


def test_parse_del_and_list():
    assert isinstance(parse_line("del link peer"), DelLink)
    assert isinstance(parse_line("del route src any dst 52:00:00:00:00:02"), DelRoute)
    assert parse_line("list routes") == ListCmd("routes")


def test_parse_ignores_blank_and_comments():
    assert parse_line("") is None
    assert parse_line("   # a comment") is None


@pytest.mark.parametrize(
    "bad",
    [
        "frobnicate",
        "add link x udp",           # missing endpoint
        "add link x udp 1.2.3.4:notaport",
        "add link x udp 1.2.3.4:99999",
        "add link x carrier 1.2.3.4",
        "add route src any link l0",  # malformed
        "add interface if0",
        "list bogus",
        "del route src any",
    ],
)
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_line(bad)


def test_parse_config_reports_line_numbers():
    text = "add link a udp 10.0.0.2\nbogus command\n"
    with pytest.raises(ParseError, match="line 2"):
        parse_config(text)


def test_parse_config_round_trip():
    text = """
    # overlay for a two-node mesh
    add link to1 udp 10.0.0.2:5002
    add route src any dst 52:00:00:00:00:02 link to1
    add route src any dst 52:00:00:00:00:01 interface if0
    """
    cmds = parse_config(text)
    assert len(cmds) == 3


# --- control component applied to a live core --------------------------------------

def make_control():
    tb = build_vnetp(nic_params=BROADCOM_1G)
    return tb, tb.controls[0]


def test_control_add_and_list_link():
    tb, ctl = make_control()
    ctl.apply_config("add link extra udp 10.0.0.9:5002")
    listing = ctl.apply(parse_line("list links"))
    assert any("extra" in line for line in listing)


def test_control_rejects_route_to_unknown_link():
    tb, ctl = make_control()
    with pytest.raises(ControlError, match="unknown link"):
        ctl.apply(parse_line("add route src any dst 52:00:00:00:00:99 link nope"))


def test_control_rejects_hot_added_interface():
    tb, ctl = make_control()
    with pytest.raises(ControlError, match="VM configuration time"):
        ctl.apply(parse_line("add interface if9 mac 52:00:00:00:00:09"))


def test_control_del_link_in_use_refused():
    tb, ctl = make_control()
    # to1 is referenced by the mesh routes built by the harness.
    with pytest.raises(ControlError, match="still referenced"):
        ctl.apply(parse_line("del link to1"))


def test_control_del_route_then_link():
    tb, ctl = make_control()
    macs = [s.mac for s in tb.cores[1].if_specs.values()]
    ctl.apply(parse_line(f"del route src any dst {macs[0]}"))
    ctl.apply(parse_line("del link to1"))
    listing = ctl.apply(parse_line("list links"))
    assert listing == []


def test_control_del_missing_route_errors():
    tb, ctl = make_control()
    with pytest.raises(ControlError, match="no route matches"):
        ctl.apply(parse_line("del route src any dst 52:ff:ff:ff:ff:ff"))


def test_remote_control_over_tcp():
    """Drive the control daemon through its simulated TCP control port,
    as a VNET/U tool would."""
    from repro.proto.tcp import TcpMessageChannel

    tb, ctl = make_control()
    sim = tb.sim
    ctl.serve()
    replies = []

    def client():
        # The control port lives on the *host* stack; drive it from the
        # peer host (an adaptation engine elsewhere on the network).
        conn = yield from tb.hosts[1].stack.tcp_connect(tb.hosts[0].ip, 5003)
        channel = TcpMessageChannel(conn)
        for line in [
            "add link extra udp 10.0.0.9:5002",
            "list links",
            "del link nope",
        ]:
            yield from channel.send_message(line, max(1, len(line)))
            reply = yield from channel.recv_message()
            replies.append(reply)

    p = sim.process(client())
    sim.run(until=p)
    assert replies[0] == "ok"
    assert "extra" in replies[1]
    assert replies[2].startswith("error:")
