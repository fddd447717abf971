"""Pytest plugin that hides numpy, so the kernel runs its stdlib path.

numpy is an optional dependency: without it the decode kernel keeps
plain-list fragments and never enters :mod:`repro.labeling.kernel.npops`.
Load this plugin to test that configuration on a machine that has
numpy installed::

    python -m pytest -p tests.hide_numpy tests/test_kernel_differential.py

A :data:`sys.meta_path` finder makes every ``import numpy`` raise
:class:`ImportError`, exactly as on an interpreter without numpy.
(Setting ``sys.modules["numpy"] = None`` instead breaks libraries that
probe for numpy through ``sys.modules``, such as hypothesis.)  The
session refuses to start if numpy was imported before the plugin
loaded or if the kernel still reports numpy as available.
"""

import sys
from importlib.abc import MetaPathFinder

import pytest


class _HideNumpy(MetaPathFinder):
    """Refuses to find ``numpy`` or any of its submodules."""

    def find_spec(self, fullname, path=None, target=None):
        if fullname == "numpy" or fullname.startswith("numpy."):
            raise ImportError(f"{fullname} is hidden by tests.hide_numpy")
        return None


sys.meta_path.insert(0, _HideNumpy())


def pytest_sessionstart(session):
    if "numpy" in sys.modules:
        raise pytest.UsageError(
            "numpy was imported before tests.hide_numpy was loaded"
        )
    from repro.labeling.kernel import HAVE_NUMPY

    if HAVE_NUMPY is not False:
        raise pytest.UsageError("the kernel still sees numpy")
