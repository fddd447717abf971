"""Meta-tests: public-API hygiene (docstrings everywhere, exports resolve,
no public name that nothing mentions)."""

import ast
import functools
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import tokenize
from collections import Counter
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


def _words(include_tests: bool) -> Counter[str]:
    """Every name token of the repository's Python, ``tests/`` in or out.

    Names in code only: a mention in a comment or docstring keeps no
    dead name alive.
    """
    words: Counter[str] = Counter()
    for path in ROOT.rglob("*.py"):
        parts = path.relative_to(ROOT).parts
        if any(p.startswith(".") for p in parts):
            continue
        if parts[0] == "tests" and not include_tests:
            continue
        with tokenize.open(path) as handle:
            words.update(
                token.string
                for token in tokenize.generate_tokens(handle.readline)
                if token.type == tokenize.NAME
            )
    return words


def _unreferenced(include_tests: bool) -> list[str]:
    """``"path: name"`` of each public def, class or method in ``src/``
    that the name scan finds no use of.

    A name counts as used when it occurs more often than it is defined.
    Only the ``visit_*`` hooks of ``lint/callgraph.py`` are exempt:
    ``ast.NodeVisitor`` calls them by name.
    """
    words = _words(include_tests)
    definitions = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        definitions.extend(
            (node.name, path.relative_to(ROOT).as_posix())
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not node.name.startswith("_")
        )
    defined = Counter(name for name, _ in definitions)
    return sorted(
        f"{where}: {name}" for name, where in definitions
        if words[name] <= defined[name]
        and not (where == "src/repro/lint/callgraph.py"
                 and name.startswith("visit_"))
    )


def test_every_public_name_is_referenced():
    """A public def, class or method that nothing mentions is dead code.

    A scan of the name tokens of the repository's Python, tests
    included, must find each public name in ``src/`` more often than it
    is defined.
    """
    unreferenced = _unreferenced(include_tests=True)
    assert not unreferenced, unreferenced


#: public names that only the tests call, each kept for the reason given
TEST_ONLY_ALLOWED = {
    "src/repro/analysis/fitting.py: fit_exponential":
        "a growth law the shape criterion weighs E2's polylog fit against",
    "src/repro/analysis/fitting.py: fit_power_law":
        "a growth law the shape criterion weighs E2's polylog fit against",
    "src/repro/analysis/fitting.py: r_squared":
        "the goodness of fit that tells the growth laws apart",
    "src/repro/baselines/single_fault.py: query_edge_fault":
        "the single-fault baseline's edge-fault answer, beside its query",
    "src/repro/connectivity/scheme.py: connected_from_labels":
        "paper-facing: connectivity decided from two labels alone",
    "src/repro/gateway/cache.py: retain_generations":
        "releases a retired generation's entries; no rollout calls it yet",
    "src/repro/graphs/doubling.py: packing_bound_holds":
        "paper-facing: the Fact 1 / Lemma 2.2 packing bound",
    "src/repro/graphs/graph.py: degree":
        "the graph's basic accessor, beside neighbors",
    "src/repro/graphs/weighted.py: from_edges":
        "a constructor of the weighted scheme's input graph",
    "src/repro/graphs/weighted.py: from_unweighted":
        "a constructor of the weighted scheme's input graph",
    "src/repro/labeling/encoding.py: decode_connectivity_label":
        "the reference the connectivity codec's round-trip tests compare to",
    "src/repro/lint/engine.py: check_source":
        "the lint engine's in-memory entry point, beside check_file",
    "src/repro/nets/hierarchy.py: nearest_net_point":
        "paper-facing: a vertex's nearest level-i net point and distance",
    "src/repro/nets/hierarchy.py: net_sizes":
        "paper-facing: |N_i| per level of the net hierarchy",
    "src/repro/nets/weighted_hierarchy.py: nearest_net_point":
        "paper-facing: a vertex's nearest level-i net point and distance",
    "src/repro/nets/weighted_hierarchy.py: net_sizes":
        "paper-facing: |N_i| per level of the weighted net hierarchy",
    "src/repro/oracle/dynamic.py: delete_edge":
        "the dynamic oracle's edge update, beside delete_vertex",
    "src/repro/oracle/dynamic.py: restore_edge":
        "the dynamic oracle's edge update, beside restore_vertex",
    "src/repro/service/clock.py: cancel":
        "the wakeup handle's cancellation, which the clock's heap honours",
    "src/repro/service/frontend.py: metrics_summary":
        "the frontend's and client's counters as one flat dict",
    "src/repro/util/bitio.py: bits_remaining":
        "bit I/O of the label format: the reader's unread bit count",
    "src/repro/util/bitio.py: read_unary":
        "bit I/O of the label format: the unary code under gamma",
    "src/repro/util/bitio.py: seek":
        "bit I/O of the label format: the reader's reposition, after cursor",
    "src/repro/util/bitio.py: write_unary":
        "bit I/O of the label format: the unary code under gamma",
    "src/repro/util/pqueue.py: decrease_key":
        "the heap's textbook operation, beside push_or_decrease",
}


def test_every_public_name_has_a_caller_outside_tests():
    """A public name only the tests call is dead code, unless allowed.

    The same name scan as above, over the repository's Python outside
    ``tests/`` (``src/``, ``examples/``, ``bench/``, ``benchmarks/``,
    ``tools/``), must find every public name in ``src/`` except those on
    ``TEST_ONLY_ALLOWED``, each with its reason.  An entry whose name
    gained a caller or went away must leave the list too.
    """
    assert _unreferenced(include_tests=False) == sorted(TEST_ONLY_ALLOWED)
    assert all(reason.strip() for reason in TEST_ONLY_ALLOWED.values())


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
