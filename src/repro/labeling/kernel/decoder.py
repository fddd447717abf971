"""Stable API of the array-native decode kernel: :class:`KernelDecoder`.

Callers speak the query vocabulary of :mod:`repro.labeling.query`
(``VertexLabel``, :class:`~repro.labeling.query.FaultSet`,
:class:`~repro.labeling.query.QueryResult`, an optional tracer).
Answers, error messages and traced op counts are bit-identical to the
object-graph reference decoder kept in ``tests/reference_decoder.py``,
a property pinned by ``tests/test_kernel_differential.py``.

Labels enter a :class:`~repro.labeling.kernel.arena.LabelArena` once
and every subsequent query over them runs on flat int arrays.  Callers
that hold stored bytes (the oracle, the database, the serving tier, the
crash batteries) :meth:`KernelDecoder.load` them straight into arena
fragments through the arena's one content-keyed cache and pass the
fragments wherever a label is accepted; callers that hold label objects
pass those, and the arena interns them by identity.  The decoder's
memos key on which arena fragments play which role in ``(s, t, F)``,
not on the ``FaultSet`` object, so a long-lived decoder shares the
safe-edge filtering and sketch assembly of every repeated combination
— one sketch among all sources and targets whose records reduce to one
content (the sketch of ``(s, F)``, or of a level section that loaded
labels share), searched by one paused search per source — and a
caller that changes its forbidden set needs no invalidation.
:func:`repro.labeling.decoder.decode_distance` is the one-shot form:
a fresh decoder per call.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from repro.exceptions import QueryError
from repro.labeling.kernel.arena import HAVE_NUMPY, Fragment, LabelArena
from repro.labeling.kernel.engine import DecodeEngine
from repro.labeling.query import (
    AnyLabel,
    FaultSet,
    QueryResult,
    check_compatible,
)

if TYPE_CHECKING:
    from repro.obs.trace import Tracer

#: a batch entry: ``(label_s, label_t)`` or ``(label_s, label_t, faults)``
Query = Sequence


class KernelDecoder:
    """The forbidden-set distance decoder, over an array label arena.

    One instance owns a label arena and a reusable-buffer engine; it is
    cheap to keep for the lifetime of a serving tier and **not**
    thread-safe (each worker should own one).  ``use_numpy=None``
    auto-detects numpy; forcing ``True`` without numpy raises.
    ``max_labels`` bounds arena memory: when more distinct labels than
    that have been admitted the arena and its cache are dropped and
    rebuilt on demand (correctness is unaffected — only the loading
    work is repaid, and a fragment a caller still holds stays usable).
    """

    def __init__(
        self, use_numpy: bool | None = None, max_labels: int = 4096
    ) -> None:
        self._arena = LabelArena(
            HAVE_NUMPY if use_numpy is None else bool(use_numpy)
        )
        self._engine = DecodeEngine(self._arena)
        self._max_labels = max_labels
        # fault-set content -> dense signature, persistent so the
        # engine's memo caches work across decode()/decode_batch() calls;
        # valid for one arena generation (the keys are handles)
        self._fsig_map: dict[tuple, int] = {}
        self._fsig_generation = self._arena.generation

    @property
    def arena(self) -> LabelArena:
        """The decoder's label arena (exposed for tests and inspection)."""
        return self._arena

    @property
    def use_numpy(self) -> bool:
        """Whether the numpy fast path is active."""
        return self._arena.use_numpy

    def load(self, data: bytes) -> Fragment:
        """A label's stored bytes as an arena fragment, parsed at most once.

        The fragment answers exactly like ``decode_label(data)`` wherever
        :meth:`decode` takes a label, and a repeat of the same bytes is
        a dict probe (see :meth:`LabelArena.load`).  Raises only
        :data:`repro.labeling.encoding.DECODE_ERRORS`.
        """
        if len(self._arena) > self._max_labels:
            self._arena.reset()
        return self._arena.load(data)

    def decode(
        self,
        label_s: AnyLabel,
        label_t: AnyLabel,
        faults: FaultSet | None = None,
        tracer: "Tracer | None" = None,
    ) -> QueryResult:
        """Answer one forbidden-set distance query from labels alone.

        Same contract as :func:`repro.labeling.decoder.decode_distance`
        (which is this method on a fresh decoder): distance, sketch
        path and sizes, tracer span tree and :class:`QueryError`
        conditions.  Every label — ``label_s``, ``label_t`` and those
        in ``faults`` — may be a
        :class:`~repro.labeling.label.VertexLabel` or a fragment from
        :meth:`load`.
        """
        return self._decode_one(label_s, label_t, faults, tracer)

    def decode_batch(
        self,
        queries: Iterable[Query],
        tracer: "Tracer | None" = None,
    ) -> list[QueryResult]:
        """Answer many queries, amortizing shared per-``(s, F)`` work.

        Each entry is ``(label_s, label_t)`` or ``(label_s, label_t,
        faults)``.  Results (and any traced spans) are exactly what a
        per-query :meth:`decode` loop would produce, in input order —
        batching (like the decoder's cross-call memoization generally)
        only shares the filtering and sketch assembly of label/fault
        combinations that repeat, so grouping order never changes an
        answer.  Errors propagate at the offending query, after
        earlier queries have completed.
        """
        out: list[QueryResult] = []
        for query in queries:
            label_s = query[0]
            label_t = query[1]
            faults = query[2] if len(query) > 2 else None
            out.append(self._decode_one(label_s, label_t, faults, tracer))
        return out

    def _decode_one(
        self,
        label_s: AnyLabel,
        label_t: AnyLabel,
        faults: FaultSet | None,
        tracer: "Tracer | None",
    ) -> QueryResult:
        faults = faults or FaultSet()
        if label_s.vertex == label_t.vertex:
            # trivial s == t query: no sketch, but the same span shape
            # and forbidden-endpoint error as a full decode
            if label_s.vertex in faults.forbidden_vertices():
                raise QueryError("query endpoint is inside the forbidden set")
            if tracer is not None:
                with tracer.span("decode") as root:
                    root.set("trivial", 1)
                    root.set("num_faults", len(faults))
            return QueryResult(
                distance=0,
                path=(label_s.vertex,),
                sketch_vertices=0,
                sketch_edges=0,
            )
        arena = self._arena
        if (
            len(arena) > self._max_labels
            or len(self._fsig_map) > 65536
            or (
                len(arena)
                and (label_s.c, label_s.top_level) != arena.scheme
            )
        ):
            # memory cap hit, or the caller switched label schemes
            # (legal for a fresh decoder, so mirror it by starting over)
            arena.reset()
        if arena.generation != self._fsig_generation:
            self._fsig_map.clear()
            self._fsig_generation = arena.generation
        root = tracer.start("decode") if tracer is not None else None
        try:
            fault_labels = faults.all_labels()
            check_compatible([label_s, label_t] + fault_labels)
            member = arena.member
            frag_s = member(label_s)
            frag_t = member(label_t)
            fault_v = [member(label) for label in faults.vertex_labels]
            fault_e = [
                (member(label_a), member(label_b))
                for label_a, label_b in faults.edge_labels
            ]
            source = [frag_s, frag_t]
            source.extend(fault_v)
            for frag_a, frag_b in fault_e:
                source.append(frag_a)
                source.append(frag_b)
            for frag in fault_v:
                arena.ensure_fault_tables(frag)
            for frag_a, frag_b in fault_e:
                arena.ensure_fault_tables(frag_a)
                arena.ensure_fault_tables(frag_b)
            fsig = 0
            if fault_v or fault_e:
                fsig_map = self._fsig_map
                key = (
                    tuple(frag.handle for frag in fault_v),
                    tuple(
                        (frag_a.handle, frag_b.handle)
                        for frag_a, frag_b in fault_e
                    ),
                )
                fsig = fsig_map.get(key, 0)
                if not fsig:
                    fsig = len(fsig_map) + 1
                    fsig_map[key] = fsig
            return self._engine.run(
                frag_s,
                frag_t,
                source,
                fault_v,
                fault_e,
                len(faults),
                fsig,
                tracer,
                root,
            )
        finally:
            if root is not None:
                tracer.end(root)
