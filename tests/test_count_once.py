"""Source-wide check: each count lives once, in its registry counter.

A component holds its :class:`~repro.obs.metrics.Counter` as a public
attribute, bumps it with ``.inc`` and is read through ``.value``.  Two
shapes would keep a second surface for the same count:

* a read-only mirror, a property returning ``self._<x>.value`` or
  ``self.counter("<x>").value``;
* a write through another object's private counter,
  ``<expr>._<name>.inc(...)`` with ``<expr>`` other than ``self``.

``vnet/flowcache.py`` keeps its properties: the flow cache's readers sum
them as ints.  So does ``exec/engine.py``: the command line, the run
artifact and the benchmark read its ``points_*`` counts as ints.

Every counter is also created with its component: a chained
create-and-bump, ``<expr>.counter(...).inc(...)``, would create it at
its first use instead, so whether it exists would depend on the run.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
EXEMPT = {"repro/vnet/flowcache.py", "repro/exec/engine.py"}
#: (module, metric-name prefix) of the counter families still created at
#: their first bump, each with the reason it may be.
LAZY_FAMILIES = {
    ("repro/sim/fluid.py", "sim.fluid.releases."):
        "a runtime-label family: the release reasons are named by whoever "
        "releases a flow (chaos, failover), not known when the solver is built",
}


def _is_self(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def _mirrors_a_counter(func: ast.FunctionDef) -> bool:
    """``@property`` whose body returns a counter's ``.value``."""
    if not any(isinstance(d, ast.Name) and d.id == "property" for d in func.decorator_list):
        return False
    body = func.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]  # docstring
    if len(body) != 1 or not isinstance(body[0], ast.Return):
        return False
    ret = body[0].value
    if not (isinstance(ret, ast.Attribute) and ret.attr == "value"):
        return False
    held = ret.value
    if isinstance(held, ast.Attribute):  # self._x.value
        return _is_self(held.value) and held.attr.startswith("_")
    return (  # self.counter("x").value
        isinstance(held, ast.Call)
        and isinstance(held.func, ast.Attribute)
        and held.func.attr == "counter"
        and _is_self(held.func.value)
    )


def _bumps_a_foreign_counter(call: ast.Call) -> bool:
    """``<expr>._<name>.inc(...)`` with ``<expr>`` not ``self``."""
    func = call.func
    if not (isinstance(func, ast.Attribute) and func.attr == "inc"):
        return False
    counter = func.value
    return (
        isinstance(counter, ast.Attribute)
        and counter.attr.startswith("_")
        and not _is_self(counter.value)
    )


def _second_copies(text: str, name: str) -> list[str]:
    """``name:line`` of every counter mirror or foreign bump in ``text``."""
    found = []
    for node in ast.walk(ast.parse(text, filename=name)):
        if isinstance(node, ast.FunctionDef) and _mirrors_a_counter(node):
            found.append(f"{name}:{node.lineno}")
        elif isinstance(node, ast.Call) and _bumps_a_foreign_counter(node):
            found.append(f"{name}:{node.lineno}")
    return found


def test_no_count_is_kept_twice():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        name = path.relative_to(SRC.parent).as_posix()
        if name not in EXEMPT:
            found += _second_copies(path.read_text(), name)
    assert found == [], (
        "hold the registry counter as a public attribute and read `.value`: "
        + ", ".join(found)
    )


def test_check_finds_both_shapes():
    """The check sees a mirror of either form, with or without a
    docstring, and a bump through another object's private counter; it
    leaves own bumps, public counters and other properties alone."""
    text = (
        "class C:\n"
        "    @property\n"
        "    def sent(self):\n"
        "        return self._sent.value\n"
        "    @property\n"
        "    def dropped(self):\n"
        "        '''Frames dropped.'''\n"
        "        return self.counter('dropped').value\n"
        "    def charge(self, core, n):\n"
        "        core.nic._tx_frames.inc(n)\n"
        "        self._sent.inc()\n"
        "        core.tx_frames.inc(n)\n"
        "    @property\n"
        "    def attached(self):\n"
        "        return self._port.connected\n"
        "    @property\n"
        "    def total(self):\n"
        "        return self.sent.value + 1\n"
    )
    assert _second_copies(text, "probe.py") == ["probe.py:3", "probe.py:6", "probe.py:10"]


def _name_prefix(node: ast.AST) -> str:
    """The literal leading text of a metric-name expression."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    prefix = ""
    if isinstance(node, ast.JoinedStr):
        for part in node.values:
            if not isinstance(part, ast.Constant):
                break
            prefix += part.value
    return prefix


def _lazy_creations(text: str, name: str) -> list[str]:
    """``name:line`` of every ``<expr>.counter(...).inc(...)`` in ``text``
    outside :data:`LAZY_FAMILIES`."""
    found = []
    for node in ast.walk(ast.parse(text, filename=name)):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "inc"
            and isinstance(node.func.value, ast.Call)
            and isinstance(node.func.value.func, ast.Attribute)
            and node.func.value.func.attr == "counter"
        ):
            continue
        args = node.func.value.args
        prefix = _name_prefix(args[0]) if args else ""
        if not any(
            name == module and prefix.startswith(family)
            for module, family in LAZY_FAMILIES
        ):
            found.append(f"{name}:{node.lineno}")
    return found


def test_counters_are_created_with_their_component():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        name = path.relative_to(SRC.parent).as_posix()
        if name != "repro/obs/metrics.py":
            found += _lazy_creations(path.read_text(), name)
    assert found == [], (
        "create the counter when its component is built and bump the "
        "attribute: " + ", ".join(found)
    )


def test_lazy_check_finds_chained_bumps():
    """The check sees a chained create-and-bump however the registry is
    reached and the name is spelt; it leaves attribute bumps and the
    allowlisted family alone."""
    text = (
        "def drop(self, reason):\n"
        "    self.obs.metrics.counter(f'hw.switch.{self.name}.dropped').inc()\n"
        "    registry.counter('exec.points.total').inc(3)\n"
        "    self.dropped.inc()\n"
        "    self.obs.metrics.counter(f'sim.fluid.releases.{reason}').inc()\n"
    )
    assert _lazy_creations(text, "probe.py") == ["probe.py:2", "probe.py:3", "probe.py:5"]
    assert _lazy_creations(text, "repro/sim/fluid.py") == [
        "repro/sim/fluid.py:2", "repro/sim/fluid.py:3",
    ]
