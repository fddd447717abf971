"""Smoke tests: every example script must run cleanly."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "examples").glob("*.py")
)


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout  # every example narrates what it does


def test_road_closures_exits_1_on_a_breach(monkeypatch, capsys):
    """An answer of inf for a connected pair breaks the guarantee."""
    import importlib.util
    import math
    from dataclasses import replace

    from repro.labeling.scheme import ForbiddenSetLabeling

    honest = ForbiddenSetLabeling.query

    def unreachable(self, s, t, *args, **kwargs):
        answer = honest(self, s, t, *args, **kwargs)
        return replace(answer, distance=math.inf)

    monkeypatch.setattr(ForbiddenSetLabeling, "query", unreachable)
    path = EXAMPLES[0].parent / "road_closures.py"
    spec = importlib.util.spec_from_file_location("road_closures", path)
    example = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(example)
    assert example.main() == 1
    assert "BREACH (reachability)" in capsys.readouterr().out


def test_examples_exist():
    assert len(EXAMPLES) >= 4
    names = {p.stem for p in EXAMPLES}
    assert "quickstart" in names
