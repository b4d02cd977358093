"""Source-wide check: each count lives once, in its registry counter.

A component holds its :class:`~repro.obs.metrics.Counter` as a public
attribute, bumps it with ``.inc`` and is read through ``.value``.  Two
shapes would keep a second surface for the same count:

* a read-only mirror, a property returning ``self._<x>.value`` or
  ``self.counter("<x>").value``;
* a write through another object's private counter,
  ``<expr>._<name>.inc(...)`` with ``<expr>`` other than ``self``.

``vnet/flowcache.py`` keeps its properties: the flow cache's readers sum
them as ints.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
EXEMPT = {"repro/vnet/flowcache.py"}


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
