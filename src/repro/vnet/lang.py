"""The VNET configuration language (Sect. 4.6).

VNET/P reuses VNET/U's control language so existing user-level tools
work unchanged.  The subset implemented here covers overlay
construction, teardown, and inspection::

    add interface <name> mac <mac>
    add link <name> udp <ip>[:<port>]
    add link <name> tcp <ip>[:<port>]
    add link <name> direct
    add route src <mac|any> dst <mac|any> link <name>
    add route src <mac|any> dst <mac|any> interface <name>
    del link <name>
    del interface <name>
    del route src <mac|any> dst <mac|any>
    list links | list interfaces | list routes

Lines starting with ``#`` and blank lines are ignored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .overlay import (
    DEFAULT_VNET_PORT,
    DestType,
    InterfaceSpec,
    LinkProto,
    LinkSpec,
    RouteEntry,
    validate_mac,
)

__all__ = [
    "ParseError",
    "AddInterface",
    "AddLink",
    "AddRoute",
    "DelLink",
    "DelInterface",
    "DelRoute",
    "ListCmd",
    "Command",
    "parse_line",
    "parse_config",
    "render_command",
    "render_config",
]


class ParseError(ValueError):
    """Malformed control-language input."""


@dataclass(frozen=True)
class AddInterface:
    spec: InterfaceSpec


@dataclass(frozen=True)
class AddLink:
    spec: LinkSpec


@dataclass(frozen=True)
class AddRoute:
    route: RouteEntry


@dataclass(frozen=True)
class DelLink:
    name: str


@dataclass(frozen=True)
class DelInterface:
    name: str


@dataclass(frozen=True)
class DelRoute:
    src_mac: str
    dst_mac: str


@dataclass(frozen=True)
class ListCmd:
    what: str  # "links" | "interfaces" | "routes"


Command = Union[AddInterface, AddLink, AddRoute, DelLink, DelInterface, DelRoute, ListCmd]


def _parse_endpoint(text: str) -> tuple[str, int]:
    if ":" in text:
        ip, _, port_s = text.partition(":")
        try:
            port = int(port_s)
        except ValueError:
            raise ParseError(f"bad port in endpoint {text!r}") from None
        if not 0 < port < 65536:
            raise ParseError(f"port out of range in {text!r}")
        return ip, port
    return text, DEFAULT_VNET_PORT


def parse_line(line: str) -> Optional[Command]:
    """Parse one control line; returns None for blanks/comments."""
    line = line.strip()
    if not line or line.startswith("#"):
        return None
    tokens = line.split()
    head = tokens[0].lower()
    try:
        if head == "add":
            return _parse_add(tokens[1:])
        if head == "del":
            return _parse_del(tokens[1:])
        if head == "list":
            if len(tokens) != 2 or tokens[1] not in ("links", "interfaces", "routes"):
                raise ParseError("usage: list links|interfaces|routes")
            return ListCmd(tokens[1])
    except IndexError:
        raise ParseError(f"truncated command: {line!r}") from None
    raise ParseError(f"unknown command: {line!r}")


def _parse_add(tokens: list[str]) -> Command:
    kind = tokens[0].lower()
    if kind == "interface":
        if len(tokens) != 4 or tokens[2].lower() != "mac":
            raise ParseError("usage: add interface <name> mac <mac>")
        return AddInterface(InterfaceSpec(name=tokens[1], mac=tokens[3]))
    if kind == "link":
        name, proto_s = tokens[1], tokens[2].lower()
        if proto_s == "direct":
            if len(tokens) != 3:
                raise ParseError("usage: add link <name> direct")
            return AddLink(LinkSpec(name=name, proto=LinkProto.DIRECT))
        if proto_s in ("udp", "tcp"):
            if len(tokens) != 4:
                raise ParseError(f"usage: add link <name> {proto_s} <ip>[:<port>]")
            ip, port = _parse_endpoint(tokens[3])
            proto = LinkProto.UDP if proto_s == "udp" else LinkProto.TCP
            return AddLink(LinkSpec(name=name, proto=proto, dst_ip=ip, dst_port=port))
        raise ParseError(f"unknown link protocol {proto_s!r}")
    if kind == "route":
        # add route src <mac|any> dst <mac|any> link|interface <name>
        if (
            len(tokens) != 7
            or tokens[1].lower() != "src"
            or tokens[3].lower() != "dst"
            or tokens[5].lower() not in ("link", "interface")
        ):
            raise ParseError(
                "usage: add route src <mac|any> dst <mac|any> link|interface <name>"
            )
        dest_type = DestType.LINK if tokens[5].lower() == "link" else DestType.INTERFACE
        return AddRoute(
            RouteEntry(
                src_mac=validate_mac(tokens[2]),
                dst_mac=validate_mac(tokens[4]),
                dest_type=dest_type,
                dest_name=tokens[6],
            )
        )
    raise ParseError(f"unknown add target {kind!r}")


def _parse_del(tokens: list[str]) -> Command:
    kind = tokens[0].lower()
    if kind == "link":
        if len(tokens) != 2:
            raise ParseError("usage: del link <name>")
        return DelLink(tokens[1])
    if kind == "interface":
        if len(tokens) != 2:
            raise ParseError("usage: del interface <name>")
        return DelInterface(tokens[1])
    if kind == "route":
        if len(tokens) != 5 or tokens[1].lower() != "src" or tokens[3].lower() != "dst":
            raise ParseError("usage: del route src <mac|any> dst <mac|any>")
        return DelRoute(validate_mac(tokens[2]), validate_mac(tokens[4]))
    raise ParseError(f"unknown del target {kind!r}")


def parse_config(text: str) -> list[Command]:
    """Parse a whole configuration file; raises with line numbers on error."""
    commands = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        try:
            cmd = parse_line(line)
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        if cmd is not None:
            commands.append(cmd)
    return commands


def render_command(cmd: Command) -> str:
    """The control-language line for one command (inverse of :func:`parse_line`).

    ``parse_line(render_command(cmd)) == cmd`` for every command the
    parser can produce; the topology compiler uses this to *emit* a
    compiled host configuration as VNET/U-compatible text, so generated
    overlays can be driven through exactly the tooling path the paper's
    hand-written configurations used.
    """
    if isinstance(cmd, AddInterface):
        return f"add interface {cmd.spec.name} mac {cmd.spec.mac}"
    if isinstance(cmd, AddLink):
        link = cmd.spec
        if link.proto is LinkProto.DIRECT:
            return f"add link {link.name} direct"
        return f"add link {link.name} {link.proto.value} {link.dst_ip}:{link.dst_port}"
    if isinstance(cmd, AddRoute):
        r = cmd.route
        return (
            f"add route src {r.src_mac} dst {r.dst_mac} "
            f"{r.dest_type.value} {r.dest_name}"
        )
    if isinstance(cmd, DelLink):
        return f"del link {cmd.name}"
    if isinstance(cmd, DelInterface):
        return f"del interface {cmd.name}"
    if isinstance(cmd, DelRoute):
        return f"del route src {cmd.src_mac} dst {cmd.dst_mac}"
    if isinstance(cmd, ListCmd):
        return f"list {cmd.what}"
    raise TypeError(f"cannot render {cmd!r}")


def render_config(commands: Iterable[Command]) -> str:
    """A configuration file body for ``commands``, one line each."""
    return "\n".join(render_command(cmd) for cmd in commands)
