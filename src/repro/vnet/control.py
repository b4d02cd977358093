"""The VNET/P control component (Sect. 4.6).

A user-space daemon that validates configuration commands and applies
them to a forwarding node (:class:`~repro.vnet.node.VnetNode`): the
in-VMM VNET/P core through its expanded interface, or a VNET/U daemon,
which speaks the same language.  Local control comes from configuration
text (file contents); remote control arrives over a TCP control port
speaking the same language as VNET/U clients, served inside the
simulated network so adaptation engines (e.g. VADAPT) can reconfigure a
running overlay.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from ..sim import Simulator
from .lang import (
    AddInterface,
    AddLink,
    AddRoute,
    Command,
    DelInterface,
    DelLink,
    DelRoute,
    ListCmd,
    parse_config,
    parse_line,
)

if TYPE_CHECKING:  # pragma: no cover
    from .node import VnetNode
    from .overlay import RouteEntry

__all__ = ["VnetControl", "ControlError"]

CONTROL_PORT = 5003


class ControlError(RuntimeError):
    """A validated-but-unappliable command (e.g. dangling reference)."""


class VnetControl:
    """Control daemon bound to one forwarding node."""

    def __init__(self, sim: Simulator, node: "VnetNode"):
        self.sim = sim
        self.node = node

    # -- local control ------------------------------------------------------
    def apply_config(self, text: str) -> list[str]:
        """Validate and apply a configuration file; returns list output."""
        return self.apply_commands(parse_config(text))

    def apply_commands(self, commands: Iterable[Command]) -> list[str]:
        """Apply a command sequence, batching consecutive route adds.

        Compiler-emitted host configurations are dominated by long runs
        of ``add route`` lines; those runs go through the node's bulk
        :meth:`~repro.vnet.node.VnetNode.add_routes` so the routing
        table fires one change notification per run instead of one per
        route.  Semantics are identical to applying the commands one by
        one.
        """
        replies: list[str] = []
        pending: list[RouteEntry] = []

        def flush() -> None:
            if not pending:
                return
            try:
                self.node.add_routes(pending)
            except (ValueError, KeyError) as exc:
                raise ControlError(str(exc)) from exc
            pending.clear()

        for cmd in commands:
            if isinstance(cmd, AddRoute):
                pending.append(cmd.route)
                continue
            flush()
            replies.extend(self.apply(cmd))
        flush()
        return replies

    def apply(self, cmd: Command) -> list[str]:
        """Apply one command to the node; returns any listing output."""
        node = self.node
        try:
            if isinstance(cmd, AddInterface):
                raise ControlError(
                    "interfaces are registered at VM configuration time; "
                    f"cannot hot-add {cmd.spec.name!r}"
                )
            if isinstance(cmd, AddLink):
                node.add_link(cmd.spec)
            elif isinstance(cmd, AddRoute):
                node.add_route(cmd.route)
            elif isinstance(cmd, DelLink):
                node.remove_link(cmd.name)
            elif isinstance(cmd, DelInterface):
                node.remove_interface(cmd.name)
            elif isinstance(cmd, DelRoute):
                n = node.routing.remove_matching(src_mac=cmd.src_mac, dst_mac=cmd.dst_mac)
                if n == 0:
                    raise ControlError(
                        f"no route matches src={cmd.src_mac} dst={cmd.dst_mac}"
                    )
            elif isinstance(cmd, ListCmd):
                return self._listing(cmd.what)
            else:  # pragma: no cover - parser is exhaustive
                raise ControlError(f"unhandled command {cmd!r}")
        except (ValueError, KeyError) as exc:
            raise ControlError(str(exc)) from exc
        return []

    def _listing(self, what: str) -> list[str]:
        node = self.node
        if what == "links":
            return [
                f"link {l.name} {l.proto.value} {l.dst_ip}:{l.dst_port}"
                if l.dst_ip
                else f"link {l.name} {l.proto.value}"
                for l in node.links.values()
            ]
        if what == "interfaces":
            return [f"interface {s.name} mac {s.mac}" for s in node.if_specs.values()]
        return [
            f"route src {r.src_mac} dst {r.dst_mac} {r.dest_type.value} {r.dest_name}"
            for r in node.routing.entries
        ]

    # -- remote control (TCP port speaking the VNET/U language) ---------------
    def serve(self, port: int = CONTROL_PORT) -> None:
        """Start the TCP control server on the host stack."""
        listener = self.node.host.stack.tcp_listen(port)
        self.sim.process(self._accept_loop(listener), name="vnetctl.accept")

    def _accept_loop(self, listener):
        from ..proto.tcp import TcpMessageChannel

        while True:
            conn = yield from listener.accept()
            channel = TcpMessageChannel(conn)
            self.sim.process(self._session(channel), name="vnetctl.session")

    def _session(self, channel):
        """One control session: line commands in, reply strings out."""
        while True:
            try:
                line = yield from channel.recv_message()
            except EOFError:
                return
            try:
                cmd = parse_line(str(line))
                output = self.apply(cmd) if cmd is not None else []
                reply = "\n".join(output) or "ok"
            except (ControlError, ValueError) as exc:
                reply = f"error: {exc}"
            yield from channel.send_message(reply, max(1, len(reply)))
