"""Meta-tests: public-API hygiene (docstrings everywhere, exports resolve)."""

import functools
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parent.parent


def _public_modules():
    modules = [repro]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if "._" in info.name or info.name.endswith("__main__"):
            continue
        modules.append(importlib.import_module(info.name))
    return modules


MODULES = _public_modules()


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_has_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), module.__name__


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_public_members_documented(module):
    undocumented = []
    for name, obj in vars(module).items():
        if name.startswith("_") or inspect.ismodule(obj):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not (obj.__doc__ and obj.__doc__.strip()):
                undocumented.append(name)
            if inspect.isclass(obj):
                for member_name, member in vars(obj).items():
                    if member_name.startswith("_"):
                        continue
                    func = member
                    if isinstance(member, (classmethod, staticmethod)):
                        func = member.__func__
                    elif isinstance(member, property):
                        func = member.fget
                    if inspect.isfunction(func) and not (
                        func.__doc__ and func.__doc__.strip()
                    ):
                        undocumented.append(f"{name}.{member_name}")
    assert not undocumented, f"{module.__name__}: {undocumented}"


@pytest.mark.parametrize(
    "module",
    [m for m in MODULES if hasattr(m, "__all__")],
    ids=lambda m: m.__name__,
)
def test_all_exports_resolve(module):
    for name in module.__all__:
        assert hasattr(module, name), f"{module.__name__}.__all__: {name}"


def test_version_defined():
    assert repro.__version__


@functools.lru_cache(maxsize=None)
def _reference_modules_loaded_by_production() -> tuple[str, ...]:
    """Every ``tests/reference_*`` module that importing all of ``repro`` loads.

    Runs in a fresh interpreter from the repository root, where the
    ``tests`` package is importable, so an accidental import would
    succeed and show up in ``sys.modules``.
    """
    script = (
        "import importlib, pkgutil, sys\n"
        "import repro\n"
        "for info in pkgutil.walk_packages(repro.__path__, prefix='repro.'):\n"
        "    if not info.name.endswith('__main__'):\n"
        "        importlib.import_module(info.name)\n"
        "print(' '.join(sorted(name for name in sys.modules\n"
        "      if name.rpartition('.')[2].startswith('reference_'))))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=300, check=False,
    )
    assert done.returncode == 0, done.stderr
    return tuple(done.stdout.split())


def test_production_never_imports_the_reference_decoder():
    """``tests/reference_decoder.py`` is test-only: no ``repro`` module loads it."""
    loaded = _reference_modules_loaded_by_production()
    assert not [name for name in loaded if name.endswith("reference_decoder")]


def test_production_never_imports_the_reference_codec():
    """``tests/reference_codec.py`` is test-only: no ``repro`` module loads it."""
    loaded = _reference_modules_loaded_by_production()
    assert not [name for name in loaded if name.endswith("reference_codec")]


def test_production_never_imports_the_reference_builder():
    """``tests/reference_builder.py`` is test-only: no ``repro`` module loads it."""
    loaded = _reference_modules_loaded_by_production()
    assert not [name for name in loaded if name.endswith("reference_builder")]
