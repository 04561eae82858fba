"""Every public name of the library has a reader outside its own tests.

A function or class of a library module counts as read when its name is
referenced again in its own module, in another ncproj module, in the
acceptance tests or in the benchmark harness; a public method of a library
class counts as read when its name is read there as an attribute.  A name
only its own unit tests read is dead surface: delete it, or move it into
the tests.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ncproj"
DOTTED = re.compile(r"[A-Za-z_][\w.]*")
READERS = [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]


def _attribute_reads(path):
    """Attributes a file reads, and the parts of a string constant that is
    a dotted name (a lookup by name)."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute):
            out.append(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and DOTTED.fullmatch(node.value):
            out.extend(node.value.split("."))
    return out


def _references(path):
    """Names a file reads: identifiers and imported names, besides its
    attribute reads."""
    out = _attribute_reads(path)
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            out.append(node.id)
        elif isinstance(node, ast.alias):
            out.append(node.name.rsplit(".", 1)[-1])
    return out


def _public_names(path):
    return [node.name for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _public_methods(path):
    return [(cls.name, node.name) for cls in ast.parse(path.read_text()).body
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


def test_every_public_name_has_a_reader():
    modules = sorted(PACKAGE.glob("*.py"))
    read = set()
    for path in [*modules, *READERS]:
        read.update(_references(path))
    unread = [f"{path.stem}.{name}" for path in modules
              if path.name not in ("cli.py", "__init__.py")
              for name in _public_names(path) if name not in read]
    assert unread == []


def test_every_public_method_has_a_reader():
    modules = sorted(PACKAGE.glob("*.py"))
    read = set()
    for path in [*modules, *READERS]:
        read.update(_attribute_reads(path))
    unread = [f"{path.stem}.{cls}.{name}" for path in modules
              for cls, name in _public_methods(path) if name not in read]
    assert unread == []
