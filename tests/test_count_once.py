"""Source-wide check: each count lives once, in its component.

A component holds each count as a plain int attribute, listed by metric
suffix in its class's ``COUNTERS`` and published to the registry once;
readers take the int.  Two shapes would keep a second surface for the
same count:

* a read-only mirror: a property returning a published attribute,
  ``self.<attr>``, or a registry instrument's ``self._<x>.value`` or
  ``self.counter("<x>").value``;
* a write through another object's private counter,
  ``<expr>._<name>.inc(...)`` with ``<expr>`` other than ``self``.

A component publishes its counts instead of holding registry
:class:`~repro.obs.metrics.Counter`\\ s: ``self.<attr> = <expr>.counter(...)``
would bring back one object, one name string and one registry slot per
count.

Every remaining counter instrument is also created where it is named: a
chained create-and-bump, ``<expr>.counter(...).inc(...)``, would create
it at its first use instead, so whether it exists would depend on the
run.
"""

import ast
from pathlib import Path

import repro
from repro.obs.metrics import _attribute

SRC = Path(repro.__file__).resolve().parent
#: (module, metric-name prefix) of the counter families still created at
#: their first bump, each with the reason it may be.
LAZY_FAMILIES = {
    ("repro/sim/fluid.py", "sim.fluid.releases."):
        "a runtime-label family: the release reasons are named by whoever "
        "releases a flow (chaos, failover), not known when the solver is built",
}


def _is_self(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def _published(tree: ast.AST) -> set[str]:
    """Attributes named by the ``COUNTERS`` tuples in ``tree``."""
    found = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "COUNTERS" for t in node.targets)
            and isinstance(node.value, ast.Tuple)
        ):
            found |= {_attribute(e.value) for e in node.value.elts
                      if isinstance(e, ast.Constant)}
    return found


def _mirrors_a_counter(func: ast.FunctionDef, published: set[str]) -> bool:
    """``@property`` whose body returns a published attribute or a
    counter's ``.value``."""
    if not any(isinstance(d, ast.Name) and d.id == "property" for d in func.decorator_list):
        return False
    body = func.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]  # docstring
    if len(body) != 1 or not isinstance(body[0], ast.Return):
        return False
    ret = body[0].value
    if not isinstance(ret, ast.Attribute):
        return False
    if _is_self(ret.value):  # self.<published attribute>
        return ret.attr in published
    if ret.attr != "value":
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


def _second_copies(text: str, name: str, published: set[str]) -> list[str]:
    """``name:line`` of every counter mirror or foreign bump in ``text``."""
    found = []
    for node in ast.walk(ast.parse(text, filename=name)):
        if isinstance(node, ast.FunctionDef) and _mirrors_a_counter(node, published):
            found.append(f"{name}:{node.lineno}")
        elif isinstance(node, ast.Call) and _bumps_a_foreign_counter(node):
            found.append(f"{name}:{node.lineno}")
    return found


def _sources() -> dict[str, str]:
    return {
        path.relative_to(SRC.parent).as_posix(): path.read_text()
        for path in sorted(SRC.rglob("*.py"))
    }


def test_no_count_is_kept_twice():
    sources = _sources()
    published: set[str] = set()
    for name, text in sources.items():
        published |= _published(ast.parse(text, filename=name))
    assert {"hits", "points_total", "exits_virtio_kick"} <= published
    found = []
    for name, text in sources.items():
        found += _second_copies(text, name, published)
    assert found == [], (
        "read the published int attribute itself: " + ", ".join(found)
    )


def test_check_finds_both_shapes():
    """The check sees a mirror of every form, with or without a
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
        "    @property\n"
        "    def points_total(self):\n"
        "        return self.total_points\n"
    )
    assert _second_copies(text, "probe.py", {"total_points"}) == [
        "probe.py:3", "probe.py:6", "probe.py:20", "probe.py:10",
    ]


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


def _held_counters(text: str, name: str) -> list[str]:
    """``name:line`` of every ``self.<attr> = <expr>.counter(...)``."""
    found = []
    for node in ast.walk(ast.parse(text, filename=name)):
        if (
            isinstance(node, (ast.Assign, ast.AnnAssign))
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
            and node.value.func.attr == "counter"
            and any(
                isinstance(t, ast.Attribute) and _is_self(t.value)
                for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
            )
        ):
            found.append(f"{name}:{node.lineno}")
    return found


def test_components_publish_their_counters():
    found = []
    for name, text in _sources().items():
        found += _held_counters(text, name)
    assert found == [], (
        "keep the count as an int attribute, list it in COUNTERS and "
        "publish the component: " + ", ".join(found)
    )


def test_held_counter_check_finds_registry_counters():
    """The check sees a component holding a registry counter however the
    registry is reached; it leaves published ints, gauges and a point
    function's local counter alone."""
    text = (
        "class C:\n"
        "    def __init__(self, metrics):\n"
        "        self.sent = metrics.counter('c.sent')\n"
        "        self.dropped: int = self.obs.metrics.counter('c.dropped')\n"
        "        self.passed = 0\n"
        "        self.depth = metrics.gauge('c.depth')\n"
        "def point(obs):\n"
        "    probes = obs.metrics.counter('p.probes')\n"
    )
    assert _held_counters(text, "probe.py") == ["probe.py:3", "probe.py:4"]
