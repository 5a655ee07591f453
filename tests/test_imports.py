"""Import hygiene of the package: no module reaches into another module's
private names, and the package namespace exports only names that exist."""

import ast
import os
import pathlib
import subprocess
import sys

import lpdiv

SRC = pathlib.Path(lpdiv.__file__).parent


def _private_imports(path: pathlib.Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "lpdiv"
        if internal:
            found += [
                f"{path.name}:{node.lineno} imports {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    return found


def test_no_module_imports_a_private_name():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    found = [hit for path in modules for hit in _private_imports(path)]
    assert found == []


def test_private_import_is_detected(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .finite_fields import _helper, make_field\n")
    assert _private_imports(probe) == ["probe.py:1 imports _helper"]


def test_every_exported_name_resolves():
    namespace: dict = {}
    exec("from lpdiv import *", namespace)  # AttributeError on a stale name
    assert {"char_sum", "lpoly_from_counts", "verify_conjecture_dk"} <= set(namespace)
    assert all(hasattr(lpdiv, name) for name in lpdiv.__all__)
    assert "two_rank_deuring" not in namespace  # a test oracle, not a library route


def test_import_leaves_fractions_unloaded():
    # every decision in the package is taken in exact integers
    probe = "import sys, lpdiv; print('fractions' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_import_builds_no_class_layout():
    # the quarter walk's block layouts are built at first use
    probe = "import lpdiv.finite_fields as ff; print(ff._pair_classes.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True, timeout=60)
    assert out.stdout.strip() == "0"
