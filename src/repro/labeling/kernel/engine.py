"""Allocation-free per-query decode engine over arena fragments.

This is the hot path behind :class:`~repro.labeling.kernel.decoder.KernelDecoder`.
One :class:`DecodeEngine` owns every per-query scratch buffer — merge
slots, vertex numbering, CSR arrays — and reuses them across queries,
so :meth:`DecodeEngine.run` performs no dict/set allocation at all
(``repro lint --deep`` walks the call graph from ``DecodeEngine.run``
and asserts exactly that; see RPL013).

The engine runs the decode pipeline of :mod:`repro.labeling.decoder`
stage by stage, with the semantics and observable op counts of the
object-graph reference decoder (``tests/reference_decoder.py``):

1. **filter** — per source fragment, keep the safe/non-forbidden edges;
2. **merge** — first-seen min-weight union of the kept edges, exactly
   the reference ``edge_weights`` dict;
3. **CSR assembly** — local-id compressed adjacency in the reference
   insertion order;
4. **Dijkstra** — array-based, with an indexed binary heap inlined
   into the loop whose tie-breaking matches
   :class:`repro.util.pqueue.IndexedMinHeap` operation for operation
   (``tests/reference_decoder.py`` holds the free-standing,
   property-tested statement of that heap).

Stages 1–3 run either on plain lists (always available) or through the
numpy kernels in :mod:`repro.labeling.kernel.npops`; both produce
byte-identical sketch graphs.

Because every stage is a pure function of ``(fragments, fault set)``,
the engine memoizes across queries: filter records are cached per
``(fragment, fault signature)`` (and, where loaded fragments share a
level section, once per ``(section, fault signature)``), and assembled
sketch graphs per sketch key — the sketch's content when t adds nothing
to it, else the whole source tuple (see :meth:`DecodeEngine.run`).  A
sketch graph is numbered by its merged edges alone, so one graph serves
every source whose record reduces to its content, each source
searching it from its own local id by its own Dijkstra, paused between
targets; it also keeps, per target, whether that target adds nothing to
it.  Both caches are answer-preserving (they cache
*inputs-determined* results, never timings), capped, and dropped
whenever the arena is reset or the id universe grows.  This is what
``decode_batch`` — and any serving tier that repeats sources or
forbidden sets — amortizes.

Tracer spans follow the reference span tree — same names, same
creation order, same attribute values — which the golden traces pin.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.exceptions import QueryError
from repro.labeling.kernel import npops
from repro.labeling.kernel.arena import Fragment, LabelArena, Section
from repro.labeling.query import QueryResult

if TYPE_CHECKING:
    from repro.obs.trace import Span, Tracer

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised where numpy is absent
    _np = None  # type: ignore[assignment]

#: cache caps — large enough for any realistic working set, small
#: enough to bound memory.  The filter cache clears on overflow; the
#: sketch cache drops its least recently used entry, so the sketches
#: of hot sources survive a stream of one-off fault sets
_FILTER_CACHE_CAP = 2048
_SKETCH_CACHE_CAP = 256

#: the numpy path pre-filters the adjacency of a settled vertex with
#: more neighbours than this (see :meth:`DecodeEngine._advance`), and
#: keeps the per-vertex keys the test reads only for a sketch with such
#: a vertex.  A fault-free sketch of the whole-graph regime is nearly
#: complete (degree n - 1).  Timed per sketch against the scalar scan,
#: alternating, on 100 seeded queries per family at ε = 1: the
#: pre-filter's fixed cost loses 12-19 % of Dijkstra time on grid:6x6
#: (degree 35) and saves 33 % on road:9x9:1 (degree 80), 22 % on
#: grid:8x8 (degree 63) and 16 % on path:96, with any threshold from
#: 24 to 48 alike there.
SCAN_PREFILTER_DEGREE = 40

_KEY_UNSEEN = (1 << 63) - 1
_KEY_SETTLED = -(1 << 63)


@dataclass(slots=True)
class _Search:
    """Dijkstra from one source over one sketch, paused between targets.

    ``state[v]`` is ``v``'s heap position while it is queued, -1 while
    it is unseen, and ``-2 - rank`` once it has settled as the
    ``rank``-th pop.  ``hkeys`` / ``hitems`` hold the heap (``size``
    entries; they grow as it does) and ``parent`` each vertex's
    predecessor (-1 for the source).  Per rank, ``dist`` / ``edges_at``
    / ``updates_at`` hold the distance and the ``edges_scanned`` /
    ``heap_updates`` counts reached at that pop (``nodes_settled`` is
    ``rank + 1``): exactly what a fresh search to that vertex reports.
    ``edges`` / ``updates`` are the running counts.  ``pending`` is the
    target the search last stopped at, popped but not yet scanned (-1
    for none).  ``key`` is the numpy scan pre-filter's per-vertex key
    array, kept only for a sketch assembled with a numpy adjacency.  It
    is derived from the heap state (see :func:`npops.scan_candidates`),
    so it stays out of the repr and of comparisons, and the two paths'
    cache entries compare equal.
    """

    size: int
    pending: int
    edges: int
    updates: int
    state: list[int]
    parent: list[int]
    hkeys: list[int]
    hitems: list[int]
    dist: list[int]
    edges_at: list[int]
    updates_at: list[int]
    key: Any = field(default=None, repr=False, compare=False)


def _fresh_search(nv: int, with_key: bool, source: int = 0) -> _Search:
    """A search over ``nv`` local ids with only ``source`` pushed."""
    state = [-1] * nv
    state[source] = 0
    key = None
    if with_key:
        key = _np.full(nv, _KEY_UNSEEN, dtype=_np.int64)
        key[source] = 0
    # one push so far: the source at key 0
    return _Search(
        1, -1, 0, 1, state, [-1] * nv, [0], [source], [], [], [], key
    )


@dataclass(slots=True)
class _Sketch:
    """One sketch-cache entry: a CSR sketch graph and its paused searches.

    ``vlist`` maps local ids to vertex ids, numbered by the merged edges
    alone (a label vertex without an edge is not in it; each query
    counts its own); ``indptr`` / ``nbr`` / ``wts`` are the adjacency in
    reference order and ``m`` the merged edge count.  ``searches``
    holds, per local id, the paused search from that source (None until
    a query searches from it).  A sketch of one content — one record
    that the rest of its first query added nothing to — keeps its merged
    edges as sorted merge keys and their weights (``keys`` /
    ``weights``, ``array('q')`` columns) for the coverage test of later
    targets, that test's verdict per target fragment handle
    (``verdicts``: 0 not yet tested, 1 the target's record adds to the
    sketch, 2 it adds nothing), and the loaded sections its content is
    made of (``sections``); a sketch of a whole source tuple has None in
    the first three and no sections.  ``fast`` is the numpy adjacency
    ``(nbr, wts)`` of the scan pre-filter, or None.
    """

    vlist: list[int]
    indptr: list[int]
    nbr: list[int]
    wts: list[int]
    m: int
    keys: array | None
    weights: array | None
    verdicts: bytearray | None
    searches: list
    sections: tuple = field(default=(), repr=False, compare=False)
    fast: Any = field(default=None, repr=False, compare=False)


class DecodeEngine:
    """Reusable-buffer decode pipeline over one :class:`LabelArena`.

    Construct once per decoder and call :meth:`run` per query; the
    engine watches the arena's generation/id-bound and invalidates its
    memo caches automatically.  Not thread-safe.
    """

    def __init__(self, arena: LabelArena) -> None:
        self._arena = arena
        self._use_numpy = arena.use_numpy
        self._generation = -1
        self._stride = 0
        # fault context of fault signature ``_loaded`` (-1: none),
        # loaded when a filter record misses the cache
        self._loaded = -1
        self._groups: list[tuple[bool, Fragment, Fragment | None]] = []
        self._forb_e: list[int] = []
        self._forb_v = bytearray()
        self._forb_dirty: list[int] = []
        self._np_forb = None
        self._np_forb_dirty: list[int] = []
        # memo caches (see module docstring)
        self._fcache: dict[tuple[int, int], tuple] = {}
        self._scache: dict[tuple, _Sketch] = {}
        self._recs: list[tuple] = []
        # merge buffers (stdlib path)
        self._eslot: dict[int, int] = {}
        self._mx: list[int] = []
        self._my: list[int] = []
        self._mw: list[int] = []
        # vertex numbering + CSR buffers
        self._lookup: list[int] = []
        self._np_lookup = None
        self._verts: list[int] = []
        self._indptr: list[int] = []
        self._cursor: list[int] = []
        self._nbr: list[int] = []
        self._wts: list[int] = []
        # the sketch assembled last, when it is not shared: it keeps
        # its numpy adjacency only until the next assembly
        self._last: _Sketch | None = None
        # trace scratch (distinct levels across the source fragments)
        self._row_mark = bytearray()
        self._row_dirty: list[int] = []

    # -- per-query pipeline ---------------------------------------------------

    def run(
        self,
        frag_s: Fragment,
        frag_t: Fragment,
        source: list[Fragment],
        fault_v: list[Fragment],
        fault_e: list[tuple[Fragment, Fragment]],
        num_faults: int,
        fsig: int,
        tracer: "Tracer | None",
        root: "Span | None",
    ) -> QueryResult:
        """Answer one (non-trivial) query over interned fragments.

        ``source`` is the scan order ``[s, t] + F`` including
        duplicates; ``fsig`` is a dense id of the fault set's content
        (0 = empty) used as the memo key.  The caller has already
        opened the ``decode`` root span (``root``) and checked scheme
        compatibility; fault fragments have their protected-ball
        bitmaps built.  Raises :class:`QueryError` when an endpoint is
        forbidden.

        The sketch cache keys a sketch by its content when the filtered
        records of t and of every fault add no edge key and lower no
        weight relative to s's merged record: the merge is associative,
        so the sketch of ``(s, t, F)`` is then the merge of s's record
        alone, and every later target whose record it covers shares it.
        The content is a shared section (:meth:`_shared`) when s's
        record reduces to that section's record, so every source that
        reduces to it shares one graph, else s's own record, keyed
        ``((s,), fsig)``.  Otherwise the key is the whole source tuple.
        Each source searches a sketch by its own paused Dijkstra, and a
        label vertex absent from the sketch adds one isolated vertex to
        the query's ``sketch_vertices``.  The sketch entry keeps each
        target's coverage verdict, so a repeated target tests it once.
        """
        self._sync()
        s = frag_s.vertex
        t = frag_t.vertex
        for frag in fault_v:
            if frag.vertex == s or frag.vertex == t:
                raise QueryError("query endpoint is inside the forbidden set")
        shared = self._shared(frag_s, fsig, fault_v, fault_e)
        key = ((frag_s.handle,) if shared is None else shared, fsig)
        sketch = self._scache.get(key)
        if sketch is None or not self._covered(
            sketch, shared, frag_t, fsig, fault_v, fault_e
        ):
            whole = (tuple(frag.handle for frag in source), fsig)
            sketch = self._scache.get(whole)
            if sketch is None:
                sketch = self._assemble(
                    [self._record(frag, fsig, fault_v, fault_e)
                     for frag in source],
                    frag_s.sections if shared is None else (shared,),
                    shared is not None,
                )
                if sketch.keys is not None:
                    whole = key
                    _keep_verdict(sketch.verdicts, frag_t.handle, True)
            key = whole
        self._keep(key, sketch)
        vlist = sketch.vlist
        origin = _local_id(vlist, s)
        target = _local_id(vlist, t)
        nv = len(vlist) + (origin < 0) + (target < 0)
        if len(source) > 2:
            nv += self._absent(vlist, source)
        m = sketch.m
        if tracer is not None:
            self._emit_build_spans(tracer, source, fsig, fault_v, fault_e, nv, m)
        dijkstra_span = (
            tracer.start("decode.dijkstra") if tracer is not None else None
        )
        try:
            if origin < 0:
                # s has no edge in the sketch: its search settles s alone
                distance, path = self._dijkstra(
                    [s], [0, 0], [], [], dijkstra_span, target=-1
                )
            else:
                search = sketch.searches[origin]
                if search is None:
                    search = sketch.searches[origin] = _fresh_search(
                        len(vlist), sketch.fast is not None, origin
                    )
                distance, path = self._dijkstra(
                    vlist,
                    sketch.indptr,
                    sketch.nbr,
                    sketch.wts,
                    dijkstra_span,
                    sketch.fast,
                    search,
                    target,
                )
        finally:
            if dijkstra_span is not None:
                tracer.end(dijkstra_span)
        if root is not None:
            root.set("num_faults", num_faults)
            root.set("sketch_vertices", nv)
            root.set("sketch_edges", m)
            root.set("reachable", 0 if math.isinf(distance) else 1)
        if math.isinf(distance):
            return QueryResult(
                distance=math.inf, path=(), sketch_vertices=nv, sketch_edges=m
            )
        return QueryResult(
            distance=int(distance),
            path=tuple(path),
            sketch_vertices=nv,
            sketch_edges=m,
        )

    # -- internals ------------------------------------------------------------

    def _sync(self) -> None:
        """Grow scratch buffers to the arena's current id universe."""
        arena = self._arena
        if arena.generation != self._generation:
            self._generation = arena.generation
            self._fcache.clear()
            self._scache.clear()
            self._last = None
            self._stride = 0
        bound = arena.id_bound
        stride = bound if bound > 1 else 1
        if stride != self._stride:
            # merge keys are x*stride + y: a stride change invalidates
            # every cached filter record, the coverage keys of every
            # sketch and the loaded forbidden-edge keys
            self._stride = stride
            self._fcache.clear()
            self._scache.clear()
            self._last = None
            self._loaded = -1
        if len(self._lookup) < bound:
            self._lookup.extend([-1] * (bound - len(self._lookup)))
        if len(self._forb_v) < bound:
            self._forb_v.extend(bytes(bound - len(self._forb_v)))
        rows = arena.rows
        if len(self._row_mark) < rows:
            self._row_mark.extend(bytes(rows - len(self._row_mark)))
        if self._use_numpy and (
            self._np_lookup is None or len(self._np_lookup) < bound
        ):
            self._np_lookup = _np.full(bound, -1, dtype=_np.int64)
            self._np_forb = _np.zeros(bound, dtype=bool)
            self._np_forb_dirty.clear()

    def _keep(self, key: tuple, sketch: _Sketch) -> None:
        """Cache a sketch, least recently used first: a hit moves back."""
        scache = self._scache
        if scache.pop(key, None) is None and len(scache) >= _SKETCH_CACHE_CAP:
            del scache[next(iter(scache))]
        scache[key] = sketch

    def _shared(
        self,
        frag: Fragment,
        fsig: int,
        fault_v: list[Fragment],
        fault_e: list[tuple[Fragment, Fragment]],
    ) -> Section | None:
        """The section whose record stands for ``frag``'s under ``fsig``.

        Only a loaded fragment's first section can, and only one that two
        or more loaded fragments hold: a sketch or a record of a section
        no other fragment lists is never shared, so no fragment pays for
        one.  Without faults, the fragment's record reduces to the
        section's when its later levels add no key and lower no weight
        relative to it (first-seen order starts with the first level), a
        test made once per fragment against the section's merged edges.
        With faults, it does when the fragment's record is the section's
        shared record (see :meth:`_record`).  None otherwise.
        """
        sections = frag.sections
        if not sections or sections[0].holders < 2:
            return None
        low = sections[0]
        if fsig:
            rec = self._record(frag, fsig, fault_v, fault_e)
            base = self._fcache.get((low, fsig))
            return low if base is not None and rec[0] is base[0] else None
        if frag.reduces is None:
            keys, weights = self._section_cover(frag)
            frag.reduces = self._covers_levels(keys, weights, (low,), frag)
        return low if frag.reduces else None

    def _record(
        self,
        frag: Fragment,
        fsig: int,
        fault_v: list[Fragment],
        fault_e: list[tuple[Fragment, Fragment]],
    ) -> tuple:
        """The filter record of ``frag`` under fault set ``fsig``, memoized.

        A numpy record is ``(kept_keys, kept_weights, dropped_forbidden,
        dropped_protected)``, a stdlib one ``(kept_x, kept_y, kept_w,
        dropped_forbidden, dropped_protected)``.  Where a section's
        record stands for the fragment's, the record holds the section's
        edges: without faults it is the section's record itself (the
        same merged edges, see :meth:`_shared`); with faults, when every
        virtual level is caught whole and only the first level lists
        graph edges, it is the first level's graph edges less the
        forbidden ones, computed once per section and fault set, with
        the fragment's own drop counts.  A merge takes such a record
        once, however many fragments hand it over.
        """
        ckey = (frag.handle, fsig)
        rec = self._fcache.get(ckey)
        if rec is not None:
            return rec
        if not fsig:
            if self._shared(frag, 0, fault_v, fault_e) is not None:
                rec = self._section_record(frag, 0)
            elif self._use_numpy:
                rec = (npops.edge_keys(frag.ex, frag.ey, self._stride),
                       frag.ew, 0, 0)
            else:
                rec = (frag.ex, frag.ey, frag.ew, 0, 0)
        else:
            if self._loaded != fsig:
                self._load_faults(fault_v, fault_e)
                self._loaded = fsig
            if self._use_numpy:
                caught = npops.caught_rows(frag, self._groups, self._stride)
            else:
                caught = self._caught_rows_py(frag)
            rec = self._caught_record(frag, fsig, caught)
            if rec is None and self._use_numpy:
                rec = npops.filter_fragment(
                    frag,
                    caught,
                    self._groups,
                    self._np_forb if fault_v else None,
                    self._forb_e,
                    self._stride,
                )
            elif rec is None:
                rec = self._filter_frag_py(frag, caught)
        return self._hold(ckey, rec)

    def _caught_record(
        self, frag: Fragment, fsig: int, caught: list[bool]
    ) -> tuple | None:
        """A faulted fragment's record as its first section's, or None.

        That holds when the first section is shared (see :meth:`_shared`),
        every level with virtual edges is caught whole and no later level
        lists a graph edge: the record is then the first level's graph
        edges less the forbidden ones, whichever fragment holds it.
        """
        sections = frag.sections
        if not frag.closed or not sections or sections[0].holders < 2:
            return None
        dropped = 0
        for k, (row, start, vstart, end) in enumerate(frag.segments):
            if (k and start < vstart) or (vstart < end and not caught[row]):
                return None
            dropped += end - vstart
        base = self._section_record(frag, fsig)
        return base[:-1] + (dropped,)

    def _section_record(self, frag: Fragment, fsig: int) -> tuple:
        """The record of ``frag``'s first section, once per fault set.

        Without faults it lists the section's edges (graph edges, then
        virtual ones); with faults, its graph edges less the forbidden
        ones, which is what a holder whose virtual levels are all caught
        keeps.  Read off the first level of any holder: they list the
        same edges.
        """
        ckey = (frag.sections[0], fsig)
        rec = self._fcache.get(ckey)
        if rec is not None:
            return rec
        _, start, vstart, end = frag.segments[0]
        if self._use_numpy:
            if fsig:
                # the loaded fault context forbids vertices iff it
                # marked some
                rec = npops.filter_graph_edges(
                    frag.ex[start:vstart], frag.ey[start:vstart],
                    frag.ew[start:vstart],
                    self._np_forb if self._forb_dirty else None,
                    self._forb_e, self._stride,
                )
            else:
                rec = (npops.edge_keys(frag.ex[start:end], frag.ey[start:end],
                                       self._stride),
                       frag.ew[start:end], 0, 0)
        elif fsig:
            kx: list[int] = []
            ky: list[int] = []
            kw: list[int] = []
            dropped = self._keep_graph_py(frag, start, vstart, kx, ky, kw)
            rec = (kx, ky, kw, dropped, 0)
        else:
            rec = (frag.ex[start:end], frag.ey[start:end], frag.ew[start:end],
                   0, 0)
        return self._hold(ckey, rec)

    def _section_cover(self, frag: Fragment) -> tuple[array, array]:
        """The merged edges of ``frag``'s first section, without faults.

        As sorted merge keys and their weights, the ``cover`` of
        :func:`repro.labeling.kernel.npops.merge_edges`, cached in the
        filter cache under ``(section, None)`` next to the section's
        records.
        """
        ckey = (frag.sections[0], None)
        cover = self._fcache.get(ckey)
        if cover is None:
            rec = self._section_record(frag, 0)
            if self._use_numpy:
                cover = npops.merge_edges([rec[0]], [rec[1]], self._stride)[3]
            else:
                cover = self._merge_py([rec])
            cover = self._hold(ckey, cover)
        return cover

    def _hold(self, ckey: tuple, value: tuple) -> tuple:
        """Keep ``value`` in the filter cache, which clears on overflow."""
        if len(self._fcache) >= _FILTER_CACHE_CAP:
            self._fcache.clear()
        self._fcache[ckey] = value
        return value

    def _covered(
        self,
        sketch: _Sketch,
        shared: Section | None,
        frag_t: Fragment,
        fsig: int,
        fault_v: list[Fragment],
        fault_e: list[tuple[Fragment, Fragment]],
    ) -> bool:
        """Whether t's filtered record adds nothing to a content sketch.

        The sketch's content fixes the verdict, which depends on t
        alone: each target is tested once and its verdict kept on the
        entry, dropped with it.  A target whose record reduces to the
        shared section the sketch is made of needs no test.
        """
        verdicts = sketch.verdicts
        handle = frag_t.handle
        if handle < len(verdicts) and verdicts[handle]:
            return verdicts[handle] == 2
        covered = (
            shared is not None
            and self._shared(frag_t, fsig, fault_v, fault_e) is shared
        ) or self._covers(sketch, frag_t, fsig, fault_v, fault_e)
        _keep_verdict(verdicts, handle, covered)
        return covered

    def _covers(
        self,
        sketch: _Sketch,
        frag_t: Fragment,
        fsig: int,
        fault_v: list[Fragment],
        fault_e: list[tuple[Fragment, Fragment]],
    ) -> bool:
        """Whether t's filtered record adds nothing to a content sketch.

        True when every kept edge of t's record is a merged edge of the
        sketch and no kept weight is below the merged one.  Without
        faults, a level of a loaded t whose section the sketch's content
        holds adds nothing to it, so only t's other levels are tested.
        """
        keys = sketch.keys
        weights = sketch.weights
        if not fsig and frag_t.sections:
            if frag_t.reduces and frag_t.sections[0] in sketch.sections:
                return True
            return self._covers_levels(keys, weights, sketch.sections, frag_t)
        rec = self._record(frag_t, fsig, fault_v, fault_e)
        if self._use_numpy:
            return npops.covers(keys, weights, rec[0], rec[1])
        return self._covers_py(keys, weights, rec[0], rec[1], rec[2])

    def _covers_levels(
        self, keys: array, weights: array, held: tuple, frag: Fragment
    ) -> bool:
        """Whether a loaded fragment's levels whose section is not in
        ``held`` add nothing to merged edges ``keys`` / ``weights``."""
        spans = [
            (start, end)
            for (_, start, _, end), section in zip(frag.segments, frag.sections)
            if start < end and section not in held
        ]
        if not spans:
            return True
        if self._use_numpy:
            rec_keys, rec_weights = npops.span_keys(frag, spans, self._stride)
            return npops.covers(keys, weights, rec_keys, rec_weights)
        ex, ey, ew = frag.ex, frag.ey, frag.ew
        return all(
            self._covers_py(
                keys, weights, ex[start:end], ey[start:end], ew[start:end]
            )
            for start, end in spans
        )

    def _covers_py(
        self,
        keys: array,
        weights: array,
        xs: list[int],
        ys: list[int],
        ws: list[int],
    ) -> bool:
        """Stdlib coverage test of kept edges against sorted merge keys."""
        stride = self._stride
        top = len(keys)
        for x, y, w in zip(xs, ys, ws):
            ekey = x * stride + y
            i = bisect_left(keys, ekey)
            if i == top or keys[i] != ekey or w < weights[i]:
                return False
        return True

    def _absent(self, vlist: list[int], source: list[Fragment]) -> int:
        """How many distinct fault label vertices of a query, other than
        ``s`` and ``t`` (``source[:2]``), the sketch lacks."""
        lookup = self._lookup
        lookup[source[0].vertex] = lookup[source[1].vertex] = 0
        absent = 0
        for frag in source[2:]:
            v = frag.vertex
            if lookup[v] < 0:
                lookup[v] = 0
                if _local_id(vlist, v) < 0:
                    absent += 1
        for frag in source:
            lookup[frag.vertex] = -1
        return absent

    def _assemble(
        self, recs: list[tuple], sections: tuple, shared: bool
    ) -> _Sketch:
        """Merge + CSR of filter records, with no search yet.

        A record handed over twice (the same record object: a shared
        section's, or one fragment's twice) is merged once; it adds no
        key and lowers no weight.  When the records after the first add
        nothing to it, this is the sketch of the first record's content,
        made of ``sections``: the entry keeps the merged edges for
        coverage tests, and, if ``shared`` (its content is a section
        several fragments hold), its numpy adjacency for good.  Every
        other sketch keeps its numpy adjacency until the next assembly.
        """
        parts = self._recs
        parts.clear()
        for rec in recs:
            for taken in parts:
                if taken[0] is rec[0]:
                    break
            else:
                parts.append(rec)
        if self._last is not None:
            self._last.fast = None
            self._last = None
        if self._use_numpy:
            ex, ey, ew, cover = npops.merge_edges(
                [rec[0] for rec in parts], [rec[1] for rec in parts],
                self._stride,
            )
            m = len(ex)
            vlist, indptr, nbr, wts, fast = npops.assemble_csr(
                ex, ey, ew, self._np_lookup, SCAN_PREFILTER_DEGREE
            )
        else:
            cover = self._merge_py(parts)
            # local ids: edge endpoints, first-seen
            verts = self._verts
            verts.clear()
            lookup = self._lookup
            mx, my = self._mx, self._my
            m = len(mx)
            for j in range(m):
                x = mx[j]
                if lookup[x] < 0:
                    lookup[x] = len(verts)
                    verts.append(x)
                y = my[j]
                if lookup[y] < 0:
                    lookup[y] = len(verts)
                    verts.append(y)
            nv = len(verts)
            self._build_csr_py(m)
            for v in verts:
                lookup[v] = -1
            # copy out of the reusable buffers: cache entries must not alias
            vlist = verts.copy()
            indptr = self._indptr[: nv + 1]
            nbr = self._nbr[: 2 * m]
            wts = self._wts[: 2 * m]
            fast = None
        keys, weights = cover if cover is not None else (None, None)
        sketch = _Sketch(
            vlist,
            indptr,
            nbr,
            wts,
            m,
            keys,
            weights,
            bytearray() if cover is not None else None,
            [None] * len(vlist),
            sections if cover is not None else (),
            fast,
        )
        if fast is not None and not (shared and cover is not None):
            self._last = sketch
        return sketch

    def _load_faults(
        self,
        fault_v: list[Fragment],
        fault_e: list[tuple[Fragment, Fragment]],
    ) -> None:
        """Rebuild the fault context (ball groups + bitmaps)."""
        groups = self._groups
        groups.clear()
        forb_e = self._forb_e
        forb_e.clear()
        forb = self._forb_v
        for v in self._forb_dirty:
            forb[v] = 0
        self._forb_dirty.clear()
        np_forb = self._np_forb
        if np_forb is not None:
            for v in self._np_forb_dirty:
                np_forb[v] = False
            self._np_forb_dirty.clear()
        for frag in fault_v:
            groups.append((False, frag, None))
            v = frag.vertex
            forb[v] = 1
            self._forb_dirty.append(v)
            if np_forb is not None:
                np_forb[v] = True
                self._np_forb_dirty.append(v)
        stride = self._stride
        for frag_a, frag_b in fault_e:
            groups.append((True, frag_a, frag_b))
            a = frag_a.vertex
            b = frag_b.vertex
            if a > b:
                a, b = b, a
            forb_e.append(a * stride + b)

    def _caught_rows_py(self, frag: Fragment) -> list[bool]:
        """Per level row, whether a loaded fault catches every virtual
        edge there: the stdlib twin of
        :func:`repro.labeling.kernel.npops.caught_rows`."""
        caught = [False] * frag.rows
        if frag.closed:
            owner = frag.vertex
            for (row, _, vstart, end), (_, ids, _) in zip(
                frag.segments, frag.points
            ):
                if vstart < end:
                    caught[row] = self._level_caught(row, ids, owner)
        return caught

    def _keep_graph_py(
        self,
        frag: Fragment,
        start: int,
        vstart: int,
        kx: list[int],
        ky: list[int],
        kw: list[int],
    ) -> int:
        """Append a level's graph edges the loaded faults do not forbid to
        ``kx`` / ``ky`` / ``kw``; returns how many were forbidden."""
        ex, ey, ew = frag.ex, frag.ey, frag.ew
        forb = self._forb_v
        forb_e = self._forb_e
        stride = self._stride
        dropped = 0
        for j in range(start, vstart):
            x = ex[j]
            y = ey[j]
            drop = forb[x] or forb[y]
            if not drop and forb_e:
                ekey = x * stride + y
                for fkey in forb_e:
                    if fkey == ekey:
                        drop = True
                        break
            if drop:
                dropped += 1
            else:
                kx.append(x)
                ky.append(y)
                kw.append(ew[j])
        return dropped

    def _filter_frag_py(self, frag: Fragment, caught: list[bool]) -> tuple:
        """Stdlib filter of one fragment against the loaded fault context.

        Returns ``(kept_x, kept_y, kept_w, dropped_forbidden,
        dropped_protected)`` in the fragment's scan order — the scalar
        twin of :func:`repro.labeling.kernel.npops.filter_fragment`,
        whole levels caught by a fault (``caught``, per row, from
        :meth:`_caught_rows_py`) included.
        """
        ex, ey, ew = frag.ex, frag.ey, frag.ew
        owner = frag.vertex
        groups = self._groups
        kx: list[int] = []
        ky: list[int] = []
        kw: list[int] = []
        dropped_forbidden = 0
        dropped_protected = 0
        closed = frag.closed
        for row, start, vstart, end in frag.segments:
            dropped_forbidden += self._keep_graph_py(
                frag, start, vstart, kx, ky, kw
            )
            if closed and caught[row]:
                dropped_protected += end - vstart
                continue
            # above the lowest level the owner may not be a net-point, so
            # its ball membership is unknown: an owner edge is tested on
            # its net endpoint alone (Lemma 2.3's conservative rule)
            owner_is_net = row == 0
            for j in range(vstart, end):
                x = ex[j]
                y = ey[j]
                bx = x
                by = y
                if not owner_is_net:
                    if x == owner:
                        bx = y
                    elif y == owner:
                        by = x
                keep = True
                for is_edge, center_a, center_b in groups:
                    ball_a = center_a.ball[row]
                    if not is_edge:
                        if ball_a[bx] and ball_a[by]:
                            keep = False
                            break
                    else:
                        ball_b = center_b.ball[row]
                        if (ball_a[bx] and ball_b[by]) or (
                            ball_b[bx] and ball_a[by]
                        ):
                            keep = False
                            break
                if keep:
                    kx.append(x)
                    ky.append(y)
                    kw.append(ew[j])
                else:
                    dropped_protected += 1
        return kx, ky, kw, dropped_forbidden, dropped_protected

    def _level_caught(self, row: int, ids: list[int], owner: int) -> bool:
        """Whether a loaded fault catches every virtual edge of a closed level.

        The stdlib twin of :func:`repro.labeling.kernel.npops.caught_rows`
        for one level: true when some vertex fault's ball at ``row`` (or
        both balls of an edge fault) holds every point the safe-edge rule
        tests there — the level's points ``ids``, less the owner above
        the lowest level.
        """
        tested = [x for x in ids if x != owner] if row else ids
        for is_edge, center_a, center_b in self._groups:
            if all(map(center_a.ball[row].__getitem__, tested)) and (
                not is_edge or all(map(center_b.ball[row].__getitem__, tested))
            ):
                return True
        return False

    def _merge_py(self, recs: list[tuple]) -> tuple | None:
        """First-seen min-weight merge into the ``_mx/_my/_mw`` buffers.

        Returns None, or — when the records after the first add no key
        and lower no weight — the merged edges as sorted merge keys and
        their weights, the ``cover`` of
        :func:`repro.labeling.kernel.npops.merge_edges`.
        """
        eslot = self._eslot
        eslot.clear()
        mx, my, mw = self._mx, self._my, self._mw
        mx.clear()
        my.clear()
        mw.clear()
        stride = self._stride
        head = -1
        lowered = False
        for rec in recs:
            for x, y, w in zip(rec[0], rec[1], rec[2]):
                ekey = x * stride + y
                slot = eslot.get(ekey, -1)
                if slot < 0:
                    eslot[ekey] = len(mx)
                    mx.append(x)
                    my.append(y)
                    mw.append(w)
                elif w < mw[slot]:
                    mw[slot] = w
                    lowered = head >= 0
            if head < 0:
                head = len(mx)
        if lowered or len(mx) != head:
            return None
        keys = sorted(eslot)
        return array("q", keys), array("q", [mw[eslot[k]] for k in keys])

    def _build_csr_py(self, m: int) -> None:
        """Two-pass CSR over the merged edges, in reference adjacency order.

        Fills the ``_indptr`` / ``_nbr`` / ``_wts`` buffers; the caller
        slices copies out of them.
        """
        lookup = self._lookup
        mx, my, mw = self._mx, self._my, self._mw
        nv = len(self._verts)
        indptr = self._indptr
        if len(indptr) < nv + 1:
            indptr.extend([0] * (nv + 1 - len(indptr)))
        for i in range(nv + 1):
            indptr[i] = 0
        for j in range(m):
            indptr[lookup[mx[j]] + 1] += 1
            indptr[lookup[my[j]] + 1] += 1
        for i in range(nv):
            indptr[i + 1] += indptr[i]
        cursor = self._cursor
        if len(cursor) < nv:
            cursor.extend([0] * (nv - len(cursor)))
        for i in range(nv):
            cursor[i] = indptr[i]
        nbr = self._nbr
        wts = self._wts
        need = 2 * m
        if len(nbr) < need:
            nbr.extend([0] * (need - len(nbr)))
            wts.extend([0] * (need - len(wts)))
        for j in range(m):
            lx = lookup[mx[j]]
            ly = lookup[my[j]]
            w = mw[j]
            p = cursor[lx]
            nbr[p] = ly
            wts[p] = w
            cursor[lx] = p + 1
            p = cursor[ly]
            nbr[p] = lx
            wts[p] = w
            cursor[ly] = p + 1

    def _emit_build_spans(
        self,
        tracer: "Tracer",
        source: list[Fragment],
        fsig: int,
        fault_v: list[Fragment],
        fault_e: list[tuple[Fragment, Fragment]],
        nv: int,
        m: int,
    ) -> None:
        """Emit the gather/filter/assembly spans of the decode span tree.

        Everything but the sketch sizes is counted from this query's
        own fragments and filter records: a cached sketch serves many
        queries.
        """
        levels_scanned = 0
        edges_listed = 0
        dropped_forbidden = 0
        dropped_protected = 0
        row_mark = self._row_mark
        row_dirty = self._row_dirty
        for r in row_dirty:
            row_mark[r] = 0
        row_dirty.clear()
        distinct_levels = 0
        num_unique = 0
        lookup = self._lookup
        base = self._arena.level_base
        for frag in source:
            levels_scanned += frag.num_levels
            edges_listed += frag.edges_listed
            for level in frag.levels_sorted:
                r = level - base
                if not row_mark[r]:
                    row_mark[r] = 1
                    row_dirty.append(r)
                    distinct_levels += 1
            rec = self._record(frag, fsig, fault_v, fault_e)
            dropped_forbidden += rec[-2]
            dropped_protected += rec[-1]
            if lookup[frag.vertex] < 0:
                lookup[frag.vertex] = 0
                num_unique += 1
        for frag in source:
            lookup[frag.vertex] = -1
        with tracer.span("decode.fragment_gather") as gather:
            gather.set("labels", len(source))
            gather.set("unique_labels", num_unique)
            gather.set("levels_scanned", levels_scanned)
            gather.set("edges_listed", edges_listed)
        with tracer.span("decode.safe_edge_filter") as filt:
            filt.set("protected_balls", len(fault_v) + len(fault_e))
            filt.set("membership_levels_computed", distinct_levels)
            filt.set("membership_cache_hits", levels_scanned - distinct_levels)
            filt.set("edges_dropped_protected", dropped_protected)
            filt.set("edges_dropped_forbidden", dropped_forbidden)
        with tracer.span("decode.sketch_assembly") as assembly:
            assembly.set("sketch_vertices", nv)
            assembly.set("edges_kept", m)

    def _dijkstra(
        self,
        vlist: list[int],
        indptr: list[int],
        nbr: list[int],
        wts: list[int],
        span: "Span | None",
        fast: tuple | None = None,
        search: _Search | None = None,
        target: int = 1,
    ) -> tuple[float, list[int]]:
        """Distance and path from a search's source to local id ``target``.

        ``search`` is the source's paused search over the sketch (a
        fresh one from local id 0 when None); :meth:`_advance` moves it
        on only if ``target`` has not settled yet.  The counts added to
        ``span`` are those reached at
        ``target``'s pop, or, when it never settles (``target`` -1: a
        vertex outside the sketch), the exhausted search's totals:
        exactly what the reference Dijkstra, run afresh to ``target``,
        reports.  ``fast`` is the sketch's numpy adjacency ``(nbr,
        wts)``, or None.
        """
        if search is None:
            search = _fresh_search(len(vlist), fast is not None)
        self._advance(search, indptr, nbr, wts, target, fast)
        rank = -2 - search.state[target] if target >= 0 else -1
        if rank >= 0:
            nodes_settled = rank + 1
            edges_scanned = search.edges_at[rank]
            heap_updates = search.updates_at[rank]
        else:
            nodes_settled = len(search.dist)
            edges_scanned = search.edges
            heap_updates = search.updates
        if span is not None:
            span.add("nodes_settled", nodes_settled)
            span.add("edges_scanned", edges_scanned)
            span.add("heap_updates", heap_updates)
        if rank < 0:
            return math.inf, []
        parent = search.parent
        path = []
        node = target
        while node >= 0:
            path.append(vlist[node])
            node = parent[node]
        path.reverse()
        return search.dist[rank], path

    def _advance(
        self,
        search: _Search,
        indptr: list[int],
        nbr: list[int],
        wts: list[int],
        target: int,
        fast: tuple | None,
    ) -> None:
        """Run a paused search until ``target`` settles or the heap empties.

        A no-op when ``target`` has settled already.  Otherwise the
        loop first scans the target the last call stopped at (popped,
        not scanned), then pops and scans exactly as a fresh search
        would, recording at each pop the counts reached there.  The
        indexed binary heap is inlined into the loop — a line-for-line
        transcription of the dense heap in ``tests/reference_decoder.py``,
        which in turn mirrors ``IndexedMinHeap``, so settle order, edge
        scans and heap updates match the reference hash-map Dijkstra
        exactly, ties included.  The heap compares keys only, and each
        vertex scans its neighbours in merged-edge order, so how the
        sketch numbers its vertices changes no settle order, count or
        path.

        ``fast`` is the sketch's numpy adjacency ``(nbr, wts)``, or
        None.  With it, the scan of a settled vertex ``u`` of degree
        above :data:`SCAN_PREFILTER_DEGREE` first keeps, in one
        vectorised test against the search's ``key`` array, the
        neighbours ``v`` that are unsettled with ``du + w`` below
        ``v``'s key.  A heap update during the scan changes only its
        own neighbour's key, never another vertex's key or heap
        membership, so the survivors include every neighbour that will
        update the heap; the scalar loop then runs over them in order,
        re-checking each live, and makes exactly the heap operations of
        a full scan.  ``edges_scanned`` still counts every neighbour.
        """
        state = search.state
        if target >= 0 and state[target] < -1:
            return
        parent = search.parent
        hkeys = search.hkeys
        hitems = search.hitems
        dist = search.dist
        edges_at = search.edges_at
        updates_at = search.updates_at
        size = search.size
        room = len(hkeys)
        nodes_settled = len(dist)
        edges_scanned = search.edges
        heap_updates = search.updates
        key = None
        if fast is not None:
            np_nbr, np_wts = fast
            key = search.key
            candidates = npops.scan_candidates
        u = search.pending
        du = dist[-1] if u >= 0 else 0
        while True:
            if u >= 0:
                start = indptr[u]
                stop = indptr[u + 1]
                edges_scanned += stop - start
                if key is not None and stop - start > SCAN_PREFILTER_DEGREE:
                    scan = candidates(np_nbr, np_wts, key, start, stop, du)
                else:
                    scan = range(start, stop)
                for p in scan:
                    v = nbr[p]
                    pv = state[v]
                    if pv < -1:  # settled
                        continue
                    nk = du + wts[p]
                    if pv < 0:
                        pos = size
                        size += 1
                        if pos == room:
                            hkeys.append(0)
                            hitems.append(0)
                            room += 1
                    elif nk < hkeys[pv]:
                        pos = pv
                    else:
                        continue
                    # sift up (stops when an ancestor key is <= nk)
                    while pos > 0:
                        par = (pos - 1) >> 1
                        pk = hkeys[par]
                        if pk <= nk:
                            break
                        hkeys[pos] = pk
                        pi = hitems[par]
                        hitems[pos] = pi
                        state[pi] = pos
                        pos = par
                    hkeys[pos] = nk
                    hitems[pos] = v
                    state[v] = pos
                    heap_updates += 1
                    parent[v] = u
                    if key is not None:
                        key[v] = nk
            if not size:
                u = -1
                break
            # pop the root, move the last entry up, sift it down
            du = hkeys[0]
            u = hitems[0]
            size -= 1
            if size:
                movk = hkeys[size]
                movi = hitems[size]
                pos = 0
                while True:
                    child = 2 * pos + 1
                    if child >= size:
                        break
                    right = child + 1
                    if right < size and hkeys[right] < hkeys[child]:
                        child = right
                    ck = hkeys[child]
                    if ck >= movk:
                        break
                    hkeys[pos] = ck
                    ci = hitems[child]
                    hitems[pos] = ci
                    state[ci] = pos
                    pos = child
                hkeys[pos] = movk
                hitems[pos] = movi
                state[movi] = pos
            state[u] = -2 - nodes_settled
            nodes_settled += 1
            dist.append(du)
            edges_at.append(edges_scanned)
            updates_at.append(heap_updates)
            if key is not None:
                key[u] = _KEY_SETTLED
            if u == target:
                break
        search.size = size
        search.pending = u
        search.edges = edges_scanned
        search.updates = heap_updates


def _keep_verdict(verdicts: bytearray, handle: int, covered: bool) -> None:
    """Record a target's coverage verdict on a content sketch entry."""
    if handle >= len(verdicts):
        verdicts.extend(bytes(handle + 1 - len(verdicts)))
    verdicts[handle] = 2 if covered else 1


def _local_id(vlist: list[int], vertex: int) -> int:
    """The local id of ``vertex`` in a sketch, or -1 when it is absent."""
    try:
        return vlist.index(vertex)
    except ValueError:
        return -1
