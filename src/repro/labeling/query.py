"""Query vocabulary shared by every decode caller.

A forbidden-set distance query names ``s``, ``t`` and a forbidden set
``F``, all given as labels.  This module holds the types that carry
such a query and its answer — :class:`FaultSet` and
:class:`QueryResult` — plus the two input checks every caller applies
before decoding: :func:`normalize_faults` on raw fault ids and
:func:`check_compatible` on the labels themselves.  It imports no
decoder, so the decode kernel and the one-shot
:func:`repro.labeling.decoder.decode_distance` can both depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Union

from repro.exceptions import QueryError
from repro.labeling.label import VertexLabel

if TYPE_CHECKING:
    from repro.labeling.kernel.arena import Fragment

#: a label as a query names it: the object, or its decode-kernel fragment
#: (:meth:`repro.labeling.kernel.KernelDecoder.load`), which carries the
#: same ``vertex``, ``c`` and ``top_level``
AnyLabel = Union[VertexLabel, "Fragment"]


@dataclass(frozen=True)
class QueryResult:
    """Outcome of one forbidden-set distance query.

    ``distance`` is the ``(1+ε)``-approximate value of
    ``d_{G\\F}(s, t)`` (``math.inf`` when disconnected); ``path`` is the
    corresponding sketch path — a sequence of original vertex ids whose
    consecutive pairs are virtual edges of ``H`` (used by the routing
    scheme as waypoints).  ``sketch_vertices``/``sketch_edges`` report
    the size of ``H`` for the query-cost experiments.
    """

    distance: float
    path: tuple[int, ...]
    sketch_vertices: int
    sketch_edges: int


def normalize_faults(
    vertex_faults,
    edge_faults,
) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """Canonicalize raw fault ids before labels are fetched.

    Duplicate vertex faults collapse to one entry (first-seen order is
    kept) and the two orientations of an edge fault — ``(a, b)`` and
    ``(b, a)`` — collapse to one ``(min, max)`` entry, so every caller
    (oracle, database, serving tier) builds the same
    :class:`FaultSet` and fetches each label at most once per role.
    A self-loop edge fault is rejected: no such edge can exist.
    """
    seen_v: set[int] = set()
    vertices: list[int] = []
    for v in vertex_faults:
        if v not in seen_v:
            seen_v.add(v)
            vertices.append(v)
    seen_e: set[tuple[int, int]] = set()
    edges: list[tuple[int, int]] = []
    for a, b in edge_faults:
        if a == b:
            raise QueryError(f"forbidden edge ({a}, {b}) is a self-loop")
        key = (min(a, b), max(a, b))
        if key not in seen_e:
            seen_e.add(key)
            edges.append(key)
    return tuple(vertices), tuple(edges)


@dataclass
class FaultSet:
    """The forbidden set of a query, given as labels (the oracle model).

    ``vertex_labels`` are the labels of forbidden vertices;
    ``edge_labels`` are ``(L(a), L(b))`` pairs for forbidden edges, as in
    the paper ("the label of an edge (a, b) of F is specified by the pair
    (L(a), L(b))").
    """

    vertex_labels: list[AnyLabel] = field(default_factory=list)
    edge_labels: list[tuple[AnyLabel, AnyLabel]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.vertex_labels) + len(self.edge_labels)

    def forbidden_vertices(self) -> set[int]:
        """Ids of forbidden vertices."""
        return {label.vertex for label in self.vertex_labels}

    def forbidden_edges(self) -> set[tuple[int, int]]:
        """Ids of forbidden edges, normalized ``(min, max)``."""
        out = set()
        for label_a, label_b in self.edge_labels:
            a, b = label_a.vertex, label_b.vertex
            out.add((min(a, b), max(a, b)))
        return out

    def all_labels(self) -> list[AnyLabel]:
        """Every label carried by the fault set."""
        labels = list(self.vertex_labels)
        for label_a, label_b in self.edge_labels:
            labels.append(label_a)
            labels.append(label_b)
        return labels


def check_compatible(labels: list[AnyLabel]) -> None:
    """Reject labels that come from different schemes.

    Labels of one scheme share ``c`` and ``top_level``; the first label
    is the reference the others are compared against, and the
    :class:`QueryError` message names both parameter pairs.
    """
    reference = labels[0]
    for label in labels[1:]:
        if (label.c, label.top_level) != (reference.c, reference.top_level):
            raise QueryError(
                "labels come from different schemes: "
                f"(c={label.c}, top={label.top_level}) vs "
                f"(c={reference.c}, top={reference.top_level})"
            )
