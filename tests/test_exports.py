"""Package-wide checks: exported names exist, and no check is an assert."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import cfpow

EXPORTING = ["cfpow"] + sorted(
    info.name
    for info in pkgutil.iter_modules(cfpow.__path__, "cfpow.")
    if hasattr(importlib.import_module(info.name), "__all__")
)


@pytest.mark.parametrize("module_name", EXPORTING)
def test_all_names_resolve(module_name):
    exported = importlib.import_module(module_name).__all__
    missing = [name for name in exported if not hasattr(importlib.import_module(module_name), name)]
    assert not missing, f"{module_name}.__all__ lists undefined names: {missing}"
    assert len(set(exported)) == len(exported)


def test_no_assert_statements_in_the_library():
    """python -O strips asserts, so no certified result may rest on one."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(cfpow.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in cfpow: {found}"


def test_pinned_bytes_hold_under_python_O():
    """The byte pins pass with asserts stripped from the library."""
    src = str(Path(cfpow.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "tests/test_pins.py"],
        cwd=Path(__file__).resolve().parent.parent,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


# Definitions that nothing in src/cfpow references but that stay there.
REFERENCE_ALLOWLIST = {
    "_Parser.error",  # argparse calls it
    # perfbench/tracer.py TARGETS names these, and perfbench/tests needs them to resolve
    "ostrowski_decode",
    "ostrowski_validate",
    "power_splits",
}


def test_every_library_definition_is_referenced_in_the_library():
    """Code that only the tests run belongs in tests/oracles.py.

    A top-level function or class counts as referenced when a name node
    with its name appears in src/cfpow outside its own body; a method when
    an attribute node with its name does.  Dunders are exempt.
    """
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(Path(cfpow.__file__).parent.glob("*.py"))]
    defs = []  # (qualified name, name, node kind that refers to it, definition)
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((node.name, node.name, ast.Name, node))
            if isinstance(node, ast.ClassDef):
                defs += [
                    (f"{node.name}.{sub.name}", sub.name, ast.Attribute, sub)
                    for sub in node.body
                    if isinstance(sub, ast.FunctionDef)
                ]
    uses = {ast.Name: [], ast.Attribute: []}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses[ast.Name].append((node.id, node))
            elif isinstance(node, ast.Attribute):
                uses[ast.Attribute].append((node.attr, node))
    unreferenced = []
    for qualname, name, kind, definition in defs:
        if name.startswith("__") and name.endswith("__"):
            continue
        inside = {id(node) for node in ast.walk(definition)}
        if not any(used == name and id(node) not in inside for used, node in uses[kind]):
            unreferenced.append(qualname)
    missing, stale = set(unreferenced) - REFERENCE_ALLOWLIST, REFERENCE_ALLOWLIST - set(unreferenced)
    assert not missing and not stale, f"unreferenced: {sorted(missing)}; allowlisted but referenced: {sorted(stale)}"
