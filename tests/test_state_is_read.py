"""Source-wide check: every attribute the package writes is also read.

A store ``self.<attr> = ...`` (plain, augmented or annotated, alone or
inside a tuple target) under ``src/repro`` needs a reader: a load of
``<expr>.<attr>``, or a ``getattr``/``hasattr`` of the constant
``"<attr>"``, somewhere in ``src/``, ``bench/``, ``benchmarks/``,
``examples/`` or ``tools/``.  A store of a counter that the storing
class, or a base class it names, lists in a ``COUNTERS`` tuple is read
too: the metrics registry reads it by name on every dump.  The same
name stored in any other class still needs a reader.  Tests do not
count as readers.  A tally that nothing
reads is deleted; a drop worth keeping is a published counter, so a
RunArtifact shows it.

The same holds for configuration: every field of a ``repro.config``
dataclass needs a load of ``<expr>.<field>`` under ``src/repro``, or
the knob changes nothing and is deleted.

The checks match names, not types: a store or field whose name some
other class's attribute shares is not flagged, so such dead state has
to be found by hand.
"""

import ast
import dataclasses
from collections import deque
from pathlib import Path

from repro import config
from repro.obs.metrics import _attribute

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
READER_DIRS = ("src", "bench", "benchmarks", "examples", "tools")
GETTERS = {"getattr", "hasattr"}


def _self_stores(tree: ast.AST) -> list[tuple[str, int, str | None]]:
    """``(attr, line, class)`` of every ``self.<attr>`` store target;
    ``class`` names the innermost enclosing class, if any."""
    found = []
    queue = deque([(tree, None)])
    while queue:
        node, cls = queue.popleft()
        if isinstance(node, ast.ClassDef):
            cls = node.name
        queue.extend((child, cls) for child in ast.iter_child_nodes(node))
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        while targets:
            t = targets.pop()
            if isinstance(t, (ast.Tuple, ast.List)):
                targets.extend(t.elts)
            elif isinstance(t, ast.Starred):
                targets.append(t.value)
            elif (
                isinstance(t, ast.Attribute)
                and isinstance(t.value, ast.Name)
                and t.value.id == "self"
            ):
                found.append((t.attr, t.lineno, cls))
    return found


def _reads(tree: ast.AST) -> set[str]:
    """Attribute names loaded or named by a constant ``getattr``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in GETTERS
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            names.add(node.args[1].value)
    return names


def _classes(tree: ast.AST) -> dict[str, tuple[set[str], list[str]]]:
    """Class name -> (attributes its ``COUNTERS`` tuple publishes, names
    of its bases)."""
    found = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        published = set()
        for stmt in node.body:
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            else:
                continue
            if (
                any(isinstance(t, ast.Name) and t.id == "COUNTERS" for t in targets)
                and isinstance(stmt.value, ast.Tuple)
            ):
                published |= {
                    _attribute(e.value) for e in stmt.value.elts
                    if isinstance(e, ast.Constant) and isinstance(e.value, str)
                }
        bases = [
            b.id if isinstance(b, ast.Name) else b.attr
            for b in node.bases if isinstance(b, (ast.Name, ast.Attribute))
        ]
        found[node.name] = (published, bases)
    return found


def _published(classes: dict[str, tuple[set[str], list[str]]], name: str | None) -> set[str]:
    """Attributes ``name`` or any base it names publishes as counters."""
    out: set[str] = set()
    seen: set[str] = set()
    todo = [name]
    while todo:
        cls = todo.pop()
        if cls in seen or cls not in classes:
            continue
        seen.add(cls)
        published, bases = classes[cls]
        out |= published
        todo.extend(bases)
    return out


def _unread_stores(modules: dict[str, str], readers: set[str]) -> list[str]:
    """``attr@name:line`` of every store in ``modules`` (name -> text)
    whose attribute is not in ``readers`` and is not a counter that the
    storing class publishes."""
    trees = {name: ast.parse(text, filename=name) for name, text in modules.items()}
    classes: dict[str, tuple[set[str], list[str]]] = {}
    for tree in trees.values():
        for cls, (published, bases) in _classes(tree).items():
            held = classes.setdefault(cls, (set(), []))
            held[0].update(published)
            held[1].extend(bases)
    found = []
    for name, tree in trees.items():
        for attr, line, cls in _self_stores(tree):
            if attr not in readers and attr not in _published(classes, cls):
                found.append(f"{attr}@{name}:{line}")
    return found


def test_every_stored_attribute_is_read():
    readers: set[str] = set()
    for d in READER_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            readers |= _reads(ast.parse(path.read_text(), filename=str(path)))
    modules = {
        path.relative_to(SRC.parent).as_posix(): path.read_text()
        for path in sorted(SRC.rglob("*.py"))
    }
    found = _unread_stores(modules, readers)
    assert found == [], (
        "read these attributes outside tests, publish a drop as a registry "
        "counter, or delete them: " + ", ".join(found)
    )


def test_check_finds_write_only_state():
    """Every store form counts, and only loads and constant ``getattr``s
    count as reads; a store is no read of its own.  A ``COUNTERS`` entry
    excuses stores in its class and subclasses, not in other classes."""
    module = (
        "class C:\n"
        "    COUNTERS = ('exits.virtio-kick',)\n"
        "    def __init__(self):\n"
        "        self.exits_virtio_kick = 0\n"
        "        self.sent = 0\n"
        "        self.kept = 0\n"
        "        self.peeked = 0\n"
        "        self.depth: int = 0\n"
        "        self.lo, [self.hi, *self.rest] = 0, [1, 2]\n"
        "    def tx(self):\n"
        "        self.sent += 1\n"
        "        return self.kept\n"
        "class D(C):\n"
        "    def kick(self):\n"
        "        self.exits_virtio_kick += 1\n"
        "class E:\n"
        "    def __init__(self):\n"
        "        self.exits_virtio_kick = 0\n"
    )
    reader = "def probe(c):\n    return getattr(c, 'peeked'), c.lo\n"
    readers = _reads(ast.parse(module)) | _reads(ast.parse(reader))
    assert _unread_stores({"probe.py": module}, readers) == [
        "sent@probe.py:5",
        "depth@probe.py:8",
        "rest@probe.py:9",
        "hi@probe.py:9",
        "sent@probe.py:11",
        "exits_virtio_kick@probe.py:18",
    ]


def _unread_fields(classes: list[type], readers: set[str]) -> list[str]:
    """``Class.field`` of every dataclass field not in ``readers``."""
    return [
        f"{cls.__name__}.{f.name}"
        for cls in classes
        for f in dataclasses.fields(cls)
        if f.name not in readers
    ]


def test_every_config_field_is_read():
    readers: set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        readers |= _reads(ast.parse(path.read_text(), filename=str(path)))
    classes = [
        obj for obj in vars(config).values()
        if isinstance(obj, type) and dataclasses.is_dataclass(obj)
        and obj.__module__ == config.__name__
    ]
    assert classes
    found = _unread_fields(classes, readers)
    assert found == [], "read these config fields under src/repro, or delete them: " + (
        ", ".join(found)
    )


def test_check_finds_unread_config_field():
    @dataclasses.dataclass(frozen=True)
    class Costs:
        used_ns: int = 1
        spare_ns: int = 2

    readers = _reads(ast.parse("def charge(costs):\n    return costs.used_ns\n"))
    assert _unread_fields([Costs], readers) == ["Costs.spare_ns"]
