"""Packaging guards: what ``import repro`` needs is declared, and no more
is loaded than it needs.

``pyproject.toml`` is what ``pip install .`` and CI read, so every
third-party package the library imports must be named there.  The RDP
accountant needs only ``scipy.special``; ``scipy.stats`` roughly doubles
the import's time and memory, so the package must not pull it in.
"""

import ast
import importlib
import os
import pathlib
import pkgutil
import re
import subprocess
import sys

import repro

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"


def declared_dependencies() -> set:
    """Distribution names in ``[project] dependencies`` (Python 3.10 has
    no ``tomllib``, so the one array is read with a regex)."""
    text = (ROOT / "pyproject.toml").read_text()
    array = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.M | re.S)
    assert array, "pyproject.toml declares no dependencies array"
    return {
        re.split(r"[<>=!~;\[ ]", name, maxsplit=1)[0].lower()
        for name in re.findall(r"[\"']([^\"']+)[\"']", array.group(1))
    }


def imported_top_levels() -> dict:
    """Top-level module name -> files under ``src/repro`` importing it."""
    found: dict = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.split(".")[0], set()).add(
                    path.relative_to(SRC).as_posix()
                )
    return found


def test_every_third_party_import_is_declared():
    declared = declared_dependencies()
    missing = {
        name: sorted(paths)
        for name, paths in imported_top_levels().items()
        if name not in sys.stdlib_module_names
        and name != "repro"
        and name.lower() not in declared
    }
    assert not missing, f"imported but not in pyproject dependencies: {missing}"


def test_import_does_not_load_scipy_stats():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro; print('scipy.stats' in sys.modules)"],
        capture_output=True, text=True, timeout=120, env=env, check=True,
    )
    assert done.stdout.strip() == "False"


def test_every_package_export_resolves():
    packages = ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.ispkg
    ]
    stale = []
    for name in packages:
        module = importlib.import_module(name)
        for export in getattr(module, "__all__", ()):
            if not hasattr(module, export):
                stale.append(f"{name}.{export}")
    assert len(packages) > 10
    assert not stale, stale
