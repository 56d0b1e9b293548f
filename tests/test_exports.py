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
