"""Both label builders against their pair-by-pair reference, order included.

Production splices each level of a label out of per-net-point rows
(:func:`repro.labeling.construction.assemble_level`, shared by
:class:`~repro.labeling.construction.LabelBuilder` and
:class:`~repro.labeling.weighted.WeightedForbiddenSetLabeling`).  The
assembly it replaced lives on in ``tests/reference_builder.py``.

Every label of every family of ``tests/test_codec_differential.py`` —
``path:96`` past ``r_{c+1}`` at ε = 1 and ``weighted-road:5x5:4``
included — at ε ∈ {1, 0.5, 0.1} and ``low_level`` ∈ {full, unit} must
equal the reference's on ``points``, ``edges`` and ``graph_edges``,
**including dict insertion order**: the kernel scans edges in that
order, so routes and traced op counts depend on it, and the label-format
golden cannot see it because the encoder sorts.
"""

from __future__ import annotations

import pytest

from repro.labeling.construction import LabelingOptions
from tests.reference_builder import for_scheme
from tests.test_codec_differential import EPSILONS, FAMILIES

LOW_LEVELS = ("full", "unit")

CASES = [
    (name, epsilon, low_level)
    for name, _, _ in FAMILIES
    for epsilon in EPSILONS
    for low_level in LOW_LEVELS
]


def _ordered(level) -> tuple[list, list, list]:
    """A level's three maps as item lists, so order counts in ``==``."""
    return (
        list(level.points.items()),
        list(level.edges.items()),
        list(level.graph_edges.items()),
    )


@pytest.mark.parametrize(
    "name,epsilon,low_level",
    CASES,
    ids=[f"{n}@{e}-{low}" for n, e, low in CASES],
)
def test_labels_match_the_reference_in_order(name, epsilon, low_level):
    (scheme_cls, build), = [
        (cls, build) for family, cls, build in FAMILIES if family == name
    ]
    graph = build()
    scheme = scheme_cls(
        graph, epsilon=epsilon, options=LabelingOptions(low_level=low_level)
    )
    reference = for_scheme(scheme)
    for vertex in range(graph.num_vertices):
        got, want = scheme.label(vertex), reference.build_label(vertex)
        assert (got.vertex, got.epsilon, got.c, got.top_level) == (
            want.vertex, want.epsilon, want.c, want.top_level,
        )
        assert list(got.levels) == list(want.levels), vertex
        for i, level in got.levels.items():
            assert level.level == i
            assert _ordered(level) == _ordered(want.levels[i]), (vertex, i)


def test_path_family_reaches_past_the_whole_graph_regime():
    """``path:96`` at ε = 1 has labels whose level-(c+1) ball misses vertices.

    Those labels take some rows whole and filter the rest, so the
    differential above covers both branches of the level assembly.
    """
    (scheme_cls, build), = [
        (cls, build) for family, cls, build in FAMILIES if family == "path:96"
    ]
    graph = build()
    scheme = scheme_cls(graph, epsilon=1.0)
    low = scheme.params.c + 1
    inner = scheme.params.r(low) - scheme.params.lam(low)
    sizes = [
        len(scheme.label(v).levels[low].points)
        for v in range(graph.num_vertices)
    ]
    assert min(sizes) < graph.num_vertices == max(sizes)
    assert max(scheme.label(0).levels[low].points.values()) > inner
