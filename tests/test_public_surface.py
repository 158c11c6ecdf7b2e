"""Every public name in `src` has a caller, a README row, or a stated reason.

The scan reads each module with `ast`.  A public name is a top-level function,
class or assigned name that does not start with `_`, or a public method or
property of a top-level class (`Class.name`).  It passes when:

- code in `src` refers to it outside its own definition, by name (`foo`) or
  as an attribute (`mod.foo`, `obj.foo`), and that code is itself live: a
  reference from inside a definition that fails does not count, so a group of
  names that only call each other fails as a group;
- README.md names it in a code span (`foo`, `module.foo` or `Class.name`); or
- `REASONS` below lists it with a one-line reason.

Attribute matching is by name alone, so a method shares its liveness with
any attribute of that name; the scan errs toward passing a name, never
toward failing a used one.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "motion_forge"
README = ROOT / "README.md"

# "module.name" -> why it stays with no caller in src and no README row
REASONS: dict[str, str] = {}


def _public(name: str) -> bool:
    return not name.startswith("_")


def definitions(src: Path = SRC) -> dict[str, tuple[str, list[ast.AST]]]:
    """"module.qualname" -> (module, the nodes that define it)."""
    defs: dict[str, tuple[str, list[ast.AST]]] = {}

    def add(module, qualname, node):
        defs.setdefault(f"{module}.{qualname}", (module, []))[1].append(node)

    for path in sorted(src.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
                add(module, node.name, node)
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and _public(member.name):
                        add(module, f"{node.name}.{member.name}", member)
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            for target in targets:
                if isinstance(target, ast.Name) and _public(target.id):
                    add(module, target.id, node)
    return defs


def references(src: Path = SRC) -> list[tuple[str, str, int]]:
    """(module, referenced name, line) for every name and attribute read in src."""
    refs = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.append((path.stem, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.append((path.stem, node.attr, node.lineno))
    return refs


def readme_paths(readme: Path = README) -> set[str]:
    """The leading dotted name of every README code span (`foo(x)` gives
    `foo`), without a `motion_forge.` prefix."""
    paths = set()
    for span in re.findall(r"`([^`\n]+)`", readme.read_text()):
        match = re.match(r"[A-Za-z_][\w.]*", span)
        if match:
            paths.add(match.group().strip(".").removeprefix("motion_forge."))
    return paths


def _named(key: str, named: set[str]) -> bool:
    return key in named or key.split(".", 1)[1] in named


def _inside(node: ast.AST, line: int) -> bool:
    return node.lineno <= line <= node.end_lineno


def unaccounted(src: Path = SRC, readme: Path = README,
                reasons: dict[str, str] = REASONS) -> list[str]:
    """The public names that fail, found as a fixpoint: a name fails when no
    live reference reaches it, and references from failed names are dead.
    The search starts with every name failed that is not kept, so liveness
    spreads only from module-level code and kept names, and a cycle of names
    that reach each other but nothing else stays failed."""
    defs = definitions(src)
    refs = references(src)
    named = readme_paths(readme)
    kept = {key for key in defs if key in reasons or _named(key, named)}
    failed = set(defs) - kept
    while True:
        dead = [(defs[key][0], node) for key in failed for node in defs[key][1]]
        live = [(module, name, line) for module, name, line in refs
                if not any(m == module and _inside(node, line) for m, node in dead)]
        now = set()
        for key, (module, nodes) in defs.items():
            if key in kept:
                continue
            name = key.rsplit(".", 1)[1]
            if not any(ref_name == name and not (ref_module == module
                                                 and any(_inside(n, line) for n in nodes))
                       for ref_module, ref_name, line in live):
                now.add(key)
        if now == failed:
            return sorted(failed)
        failed = now


def test_every_public_name_has_a_caller_a_readme_row_or_a_reason():
    failed = unaccounted()
    assert not failed, (
        "public names with no live caller in src, no README code span and no entry in "
        f"REASONS: {', '.join(failed)}")


def test_every_reason_names_a_public_name_that_needs_one():
    defs = definitions()
    assert sorted(set(REASONS) - set(defs)) == []
    named = readme_paths()
    assert sorted(key for key in REASONS if _named(key, named)) == []


# (files in a one-level package, README text, REASONS, the names that fail)
SCAN_CASES = {
    "unreferenced function fails": (
        {"a": "def foo():\n    return 1\n"}, "", {}, ["a.foo"]),
    "call from another module keeps it": (
        {"a": "def foo():\n    return 1\n", "b": "from a import foo\nX = foo()\n"},
        "`X`", {}, []),
    "call from its own body does not count": (
        {"a": "def foo(n):\n    return foo(n - 1)\n"}, "", {}, ["a.foo"]),
    "names that only call each other fail together": (
        {"a": "def foo():\n    return bar()\n\n\ndef bar():\n    return foo()\n"},
        "", {}, ["a.bar", "a.foo"]),
    "a dead caller keeps nothing alive": (
        {"a": "def dead():\n    return helper()\n\n\ndef helper():\n    return 1\n"},
        "", {}, ["a.dead", "a.helper"]),
    "a dead class's methods keep nothing alive": (
        {"a": "class C:\n    def m(self):\n        return helper()\n\n\n"
              "def helper():\n    return 1\n"},
        "", {}, ["a.C", "a.C.m", "a.helper"]),
    "README call span keeps a bare name": (
        {"a": "def foo(x):\n    return x\n"}, "`foo(x)` returns x", {}, []),
    "README span keeps a module path": (
        {"a": "def foo():\n    return 1\n"}, "see `a.foo`", {}, []),
    "README span keeps a package path": (
        {"a": "def foo():\n    return 1\n"}, "see `motion_forge.a.foo`", {}, []),
    "README prose without a code span keeps nothing": (
        {"a": "def foo():\n    return 1\n"}, "foo is documented here", {}, ["a.foo"]),
    "method read as an attribute passes": (
        {"a": "class C:\n    def m(self):\n        return 1\n\n\nY = C().m()\n"},
        "`Y`", {}, []),
    "unread property fails": (
        {"a": "class C:\n    @property\n    def p(self):\n        return 1\n\n\nY = C()\n"},
        "`Y`", {}, ["a.C.p"]),
    "unread assigned and annotated names fail": (
        {"a": "LIMIT = 3\nWIDTH: int = 4\n"}, "", {}, ["a.LIMIT", "a.WIDTH"]),
    "a reason keeps a name": (
        {"a": "def foo():\n    return 1\n"}, "", {"a.foo": "called by a notebook"}, []),
    "private names are not scanned": (
        {"a": "_LIMIT = 3\n\n\ndef _foo():\n    return 1\n\n\n"
              "class C:\n    def _m(self):\n        return 1\n"},
        "`C`", {}, []),
}


@pytest.mark.parametrize("case", list(SCAN_CASES))
def test_scan_fails_exactly_the_names_with_no_live_caller(case, tmp_path):
    files, readme_text, reasons, expected = SCAN_CASES[case]
    src = tmp_path / "pkg"
    src.mkdir()
    for module, text in files.items():
        (src / f"{module}.py").write_text(text)
    readme = tmp_path / "README.md"
    readme.write_text(readme_text)
    assert unaccounted(src, readme, reasons) == expected
