"""Source-wide check: processes sleep by yielding their delay.

``yield delay`` queues the process itself; ``yield sim.timeout(delay)``
schedules the same wake-up through a :class:`~repro.sim.Timeout` event
at about twice the host cost.  ``Simulator.timeout`` stays for code that
needs an event object (``any_of``, ``run(until=...)``, saved timers).
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent


def _yielded_timeouts(text: str, name: str) -> list[str]:
    """``name:line`` of every ``yield <expr>.timeout(...)`` in ``text``."""
    return [
        f"{name}:{node.lineno}"
        for node in ast.walk(ast.parse(text, filename=name))
        if isinstance(node, ast.Yield)
        and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Attribute)
        and node.value.func.attr == "timeout"
    ]


def test_no_process_yields_a_timeout():
    found = [
        site
        for path in sorted(SRC.rglob("*.py"))
        for site in _yielded_timeouts(path.read_text(), str(path.relative_to(SRC.parent)))
    ]
    assert found == [], "sleep with `yield delay`, not `yield sim.timeout(delay)`: " + ", ".join(
        found
    )


def test_check_finds_a_yielded_timeout():
    """The check sees the slow form inline, wrapped and assigned, and
    leaves a saved timer and a plain sleep alone."""
    text = (
        "def p(sim):\n"
        "    yield sim.timeout(5)\n"
        "    x = yield (\n"
        "        self.sim.timeout(1)\n"
        "    )\n"
        "    timer = sim.timeout(9)\n"
        "    yield sim.any_of([timer])\n"
        "    yield 5\n"
    )
    assert _yielded_timeouts(text, "probe.py") == ["probe.py:2", "probe.py:3"]
