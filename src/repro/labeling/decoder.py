"""Query decoder: assemble the sketch graph ``H`` and run Dijkstra.

Implements the "Distance Queries" paragraph of Section 2.1.  Given the
labels of ``s``, ``t`` and the forbidden set ``F`` (vertex labels, and
label *pairs* for forbidden edges), the decoder:

1. collects every virtual edge stored in every supplied label;
2. keeps the *safe* ones — a level-``i`` edge is dropped when it lies
   inside a protected ball ``PB_i(f) = B(f, λ_i)`` of some fault;
3. re-adds the surviving **unit** edges of the lowest level whose
   endpoints (and the edge itself) are not forbidden;
4. runs Dijkstra from ``s`` to ``t`` on the resulting graph ``H``.

The decoder consumes labels only — it has no access to the input graph.

Safety rules (Lemma 2.3, extended to edge faults):

* **net–net edge** ``(x, y)``: dropped iff for some fault both endpoints
  are inside the *same* protected ball — for a faulty vertex ``f``, both
  in ``PB_i(f)``; for a faulty edge ``(a, b)``, one endpoint in
  ``PB_i(a)`` and the other in ``PB_i(b)`` (a path of length ``≤ λ_i``
  crossing the edge forces exactly that pattern).
* **owner edge** ``(v, z)`` with ``v ∈ {s, t}`` not a net-point of the
  level: protected-ball membership of ``v`` cannot be decided from the
  labels (fault labels only store net-points), so the rule is
  conservative: the edge is dropped whenever the net endpoint ``z`` alone
  is inside a fault's protected ball (both balls, for a faulty edge).
  A path ``v → z`` of length ``≤ λ_i`` through a fault always puts ``z``
  inside the relevant ball, so this is safe; and every owner edge used by
  the stretch proof has ``d(z, F) > λ_i``, so none of them is lost —
  the ``1+ε`` guarantee is unaffected.

One engine runs these steps: the array kernel of
:mod:`repro.labeling.kernel`.  :func:`decode_distance` is its one-shot
form — each call runs a fresh :class:`~repro.labeling.kernel.KernelDecoder`
and keeps nothing afterwards.  Owners that answer a stream of queries
(the oracle, the serving tier, the routing schemes) hold one decoder
instead, so labels are interned once and repeated ``(s, F)``
combinations hit its memos.  The query vocabulary (:class:`FaultSet`,
:class:`QueryResult`, :func:`normalize_faults`) lives in
:mod:`repro.labeling.query` and is re-exported here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.labeling.kernel.decoder import KernelDecoder
from repro.labeling.label import VertexLabel
from repro.labeling.query import FaultSet, QueryResult, normalize_faults

if TYPE_CHECKING:
    from repro.obs.trace import Tracer

__all__ = ["FaultSet", "QueryResult", "decode_distance", "normalize_faults"]


def decode_distance(
    label_s: VertexLabel,
    label_t: VertexLabel,
    faults: FaultSet | None = None,
    tracer: "Tracer | None" = None,
) -> QueryResult:
    """Answer a forbidden-set distance query from labels alone.

    Returns a :class:`QueryResult` whose ``distance`` satisfies
    ``d_{G\\F}(s,t) ≤ distance ≤ (1+ε)·d_{G\\F}(s,t)``
    (``math.inf`` when ``s`` and ``t`` are disconnected in ``G\\F``).
    Raises :class:`~repro.exceptions.QueryError` when an endpoint is
    forbidden or the labels come from different schemes.  A ``tracer``
    records the decode pipeline's op counts as a span tree (see
    :mod:`repro.obs.trace`); tracing never changes answers.
    """
    return KernelDecoder().decode(label_s, label_t, faults, tracer=tracer)
