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
``(fragment, fault signature)``, and assembled sketch graphs, each
with its Dijkstra paused between targets, per sketch key — ``(s, F)``
when t adds nothing to the sketch, else the whole source tuple (see
:meth:`DecodeEngine.run`).  A sketch of ``(s, F)`` also keeps, per
target, whether that target adds nothing to it.  Both caches are answer-preserving (they
cache *inputs-determined* results, never timings), capped, and dropped
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
from typing import TYPE_CHECKING, Any, NamedTuple

from repro.exceptions import QueryError
from repro.labeling.kernel import npops
from repro.labeling.kernel.arena import Fragment, LabelArena
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
    """Dijkstra from local id 0 (``s``) over one sketch, paused between targets.

    ``state[v]`` is ``v``'s heap position while it is queued, -1 while
    it is unseen, and ``-2 - rank`` once it has settled as the
    ``rank``-th pop.  ``hkeys`` / ``hitems`` hold the heap (``size``
    entries; they grow as it does) and ``parent`` each vertex's
    predecessor.  Per rank, ``dist`` / ``edges_at`` / ``updates_at``
    hold the distance and the ``edges_scanned`` / ``heap_updates``
    counts reached at that pop (``nodes_settled`` is ``rank + 1``):
    exactly what a fresh search to that vertex reports.  ``edges`` /
    ``updates`` are the running counts.  ``pending`` is the target the
    search last stopped at, popped but not yet scanned (-1 for none).
    ``key`` is the numpy scan pre-filter's per-vertex key array, kept
    only for a sketch assembled with a numpy adjacency.  It is derived
    from the heap state (see :func:`npops.scan_candidates`), so it
    stays out of the repr and of comparisons, and the two paths' cache
    entries compare equal.
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


def _fresh_search(nv: int, with_key: bool) -> _Search:
    """A search over ``nv`` local ids with only ``s`` (local 0) pushed."""
    state = [-1] * nv
    state[0] = 0
    key = None
    if with_key:
        key = _np.full(nv, _KEY_UNSEEN, dtype=_np.int64)
        key[0] = 0
    # one push so far: s at key 0
    return _Search(1, -1, 0, 1, state, [-1] * nv, [0], [0], [], [], [], key)


class _Sketch(NamedTuple):
    """One sketch-cache entry: a CSR sketch graph and its paused search.

    ``vlist`` maps local ids to vertex ids, ``s`` first; ``indptr`` /
    ``nbr`` / ``wts`` are the adjacency in reference order and ``m``
    the merged edge count.  A sketch of ``(s, F)`` keeps its merged
    edges as sorted merge keys and their weights (``keys`` /
    ``weights``, ``array('q')`` columns) for the coverage test of later
    targets, and that test's verdict per target fragment handle
    (``verdicts``: 0 not yet tested, 1 the target's record adds to the
    sketch, 2 it adds nothing); a sketch of a whole source tuple has
    None in all three.
    """

    vlist: list[int]
    indptr: list[int]
    nbr: list[int]
    wts: list[int]
    m: int
    keys: array | None
    weights: array | None
    verdicts: bytearray | None
    search: _Search


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
        # the numpy adjacency of the sketch assembled last: the nbr
        # list it belongs to, then (nbr, wts) arrays
        self._np_adj: tuple | None = None
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

        The sketch cache keys a sketch by ``((s,), fsig)`` when the
        filtered records of t and of every fault add no edge key and
        lower no weight relative to s's merged record (and t is a
        vertex of the result): the merge is associative, so the sketch
        of ``(s, t, F)`` is then the sketch of ``(s, F)``, and every
        later target whose record it covers shares it, searched by one
        paused Dijkstra.  Otherwise the key is the whole source tuple.
        A later target absent from an ``(s, F)`` sketch adds one
        isolated vertex to it.  The sketch entry keeps each target's
        coverage verdict, so a repeated ``(s, t, F)`` tests it once.
        """
        self._sync()
        s = frag_s.vertex
        t = frag_t.vertex
        for frag in fault_v:
            if frag.vertex == s or frag.vertex == t:
                raise QueryError("query endpoint is inside the forbidden set")
        scache = self._scache
        key = ((frag_s.handle,), fsig)
        sketch = scache.get(key)
        if sketch is None or not self._covered(
            sketch, frag_t, fsig, fault_v, fault_e
        ):
            key = (tuple(frag.handle for frag in source), fsig)
            sketch = scache.get(key)
            if sketch is None:
                sketch = self._build_sketch(source, fsig, fault_v, fault_e)
                if sketch.keys is not None:
                    key = ((frag_s.handle,), fsig)
                    _keep_verdict(sketch.verdicts, frag_t.handle, True)
        # least recently used first: a hit moves to the back
        if scache.pop(key, None) is None and len(scache) >= _SKETCH_CACHE_CAP:
            del scache[next(iter(scache))]
        scache[key] = sketch
        vlist = sketch.vlist
        nv = len(vlist)
        target = 1
        if sketch.keys is not None:
            target = _local_id(vlist, t)
            if target < 0:
                nv += 1
        m = sketch.m
        if tracer is not None:
            self._emit_build_spans(tracer, source, fsig, fault_v, fault_e, nv, m)
        dijkstra_span = (
            tracer.start("decode.dijkstra") if tracer is not None else None
        )
        adjacency = self._np_adj
        fast = (
            adjacency[1]
            if adjacency is not None and adjacency[0] is sketch.nbr
            else None
        )
        try:
            distance, path = self._dijkstra(
                vlist,
                sketch.indptr,
                sketch.nbr,
                sketch.wts,
                dijkstra_span,
                fast,
                sketch.search,
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
            self._stride = 0
        bound = arena.id_bound
        stride = bound if bound > 1 else 1
        if stride != self._stride:
            # merge keys are x*stride + y: a stride change invalidates
            # every cached filter record, the coverage keys of every
            # (s, F) sketch and the loaded forbidden-edge keys
            self._stride = stride
            self._fcache.clear()
            self._scache.clear()
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
        dropped_forbidden, dropped_protected)``.
        """
        ckey = (frag.handle, fsig)
        rec = self._fcache.get(ckey)
        if rec is not None:
            return rec
        if self._loaded != fsig:
            self._load_faults(fault_v, fault_e)
            self._loaded = fsig
        if self._use_numpy:
            rec = npops.filter_fragment(
                frag,
                self._groups,
                self._np_forb if fault_v else None,
                self._forb_e,
                self._stride,
            )
        elif fsig == 0:
            rec = (frag.ex, frag.ey, frag.ew, 0, 0)
        else:
            rec = self._filter_frag_py(frag)
        if len(self._fcache) >= _FILTER_CACHE_CAP:
            self._fcache.clear()
        self._fcache[ckey] = rec
        return rec

    def _covered(
        self,
        sketch: _Sketch,
        frag_t: Fragment,
        fsig: int,
        fault_v: list[Fragment],
        fault_e: list[tuple[Fragment, Fragment]],
    ) -> bool:
        """Whether t's filtered record adds nothing to an ``(s, F)`` sketch.

        The entry is the sketch of one ``(s, F)``, so the verdict depends
        on t alone: each target is tested once and its verdict kept on
        the entry, dropped with it.
        """
        verdicts = sketch.verdicts
        handle = frag_t.handle
        if handle < len(verdicts) and verdicts[handle]:
            return verdicts[handle] == 2
        covered = self._covers(
            sketch, self._record(frag_t, fsig, fault_v, fault_e)
        )
        _keep_verdict(verdicts, handle, covered)
        return covered

    def _covers(self, sketch: _Sketch, rec: tuple) -> bool:
        """Whether a filtered record adds nothing to an ``(s, F)`` sketch.

        True when every kept edge of ``rec`` is a merged edge of the
        sketch and no kept weight is below the merged one.
        """
        keys = sketch.keys
        weights = sketch.weights
        if self._use_numpy:
            return npops.covers(keys, weights, rec[0], rec[1])
        stride = self._stride
        top = len(keys)
        for x, y, w in zip(rec[0], rec[1], rec[2]):
            ekey = x * stride + y
            i = bisect_left(keys, ekey)
            if i == top or keys[i] != ekey or w < weights[i]:
                return False
        return True

    def _build_sketch(
        self,
        source: list[Fragment],
        fsig: int,
        fault_v: list[Fragment],
        fault_e: list[tuple[Fragment, Fragment]],
    ) -> _Sketch:
        """Filter + merge + CSR for one ``(s, t, F)``, with a fresh search.

        When the records after s's add nothing to s's merged record and
        t is a vertex of the result, this is the sketch of ``(s, F)``:
        the head of the numbering leaves t out, and the entry keeps the
        merged edges for coverage tests.  Otherwise the head is every
        source vertex, first-seen, so ``s`` and ``t`` are local ids 0
        and 1.
        """
        recs = self._recs
        recs.clear()
        for frag in source:
            recs.append(self._record(frag, fsig, fault_v, fault_e))
        use_np = self._use_numpy
        if use_np:
            ex, ey, ew, cover = npops.merge_edges(
                [rec[0] for rec in recs], [rec[1] for rec in recs], self._stride
            )
        else:
            cover = self._merge_py(recs)
        head = source
        if cover is not None:
            # the sketch of (s, F), kept only if it holds this query's t:
            # the entry a query builds is that query's sketch
            head = source[:1] + source[2:]
            t = source[1].vertex
            if use_np:
                t_in_edges = bool((ex == t).any() or (ey == t).any())
            else:
                t_in_edges = t in self._mx or t in self._my
            if not t_in_edges and all(frag.vertex != t for frag in head):
                cover = None
                head = source
        # unique label vertices, first-seen — the head of the local numbering
        verts = self._verts
        verts.clear()
        lookup = self._lookup
        for frag in head:
            v = frag.vertex
            if lookup[v] < 0:
                lookup[v] = len(verts)
                verts.append(v)
        adjacency = None
        if use_np:
            for v in verts:
                lookup[v] = -1
            m = len(ex)
            vlist, indptr, nbr, wts, adjacency = npops.assemble_csr(
                verts, ex, ey, ew, self._np_lookup, SCAN_PREFILTER_DEGREE
            )
            # only the sketch just assembled keeps its numpy adjacency:
            # a later search of an older sketch scans scalar rather than
            # hold a second copy of every cached sketch
            self._np_adj = (nbr, adjacency) if adjacency is not None else None
        else:
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
        keys, weights = cover if cover is not None else (None, None)
        return _Sketch(
            vlist,
            indptr,
            nbr,
            wts,
            m,
            keys,
            weights,
            bytearray() if cover is not None else None,
            _fresh_search(len(vlist), adjacency is not None),
        )

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

    def _filter_frag_py(self, frag: Fragment) -> tuple:
        """Stdlib filter of one fragment against the loaded fault context.

        Returns ``(kept_x, kept_y, kept_w, dropped_forbidden,
        dropped_protected)`` in the fragment's scan order — the scalar
        twin of :func:`repro.labeling.kernel.npops.filter_fragment`,
        whole levels caught by a fault (:meth:`_level_caught`) included.
        """
        ex, ey, ew = frag.ex, frag.ey, frag.ew
        owner = frag.vertex
        groups = self._groups
        forb = self._forb_v
        forb_e = self._forb_e
        kx: list[int] = []
        ky: list[int] = []
        kw: list[int] = []
        dropped_forbidden = 0
        dropped_protected = 0
        stride = self._stride
        closed = frag.closed
        for (row, start, vstart, end), (_, ids, _) in zip(
            frag.segments, frag.points
        ):
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
                    dropped_forbidden += 1
                else:
                    kx.append(x)
                    ky.append(y)
                    kw.append(ew[j])
            if closed and vstart < end and self._level_caught(row, ids, owner):
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
        """Distance and path from local id 0 (``s``) to local id ``target``.

        ``search`` is the sketch's paused search (a fresh one when
        None); :meth:`_advance` moves it on only if ``target`` has not
        settled yet.  The counts added to ``span`` are those reached at
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
        path = [vlist[target]]
        node = target
        while node != 0:
            node = parent[node]
            path.append(vlist[node])
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
    """Record a target's coverage verdict on an ``(s, F)`` sketch entry."""
    if handle >= len(verdicts):
        verdicts.extend(bytes(handle + 1 - len(verdicts)))
    verdicts[handle] = 2 if covered else 1


def _local_id(vlist: list[int], vertex: int) -> int:
    """The local id of ``vertex`` in a sketch, or -1 when it is absent."""
    try:
        return vlist.index(vertex)
    except ValueError:
        return -1
