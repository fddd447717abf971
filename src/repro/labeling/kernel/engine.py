"""Allocation-free per-query decode engine over arena fragments.

This is the hot path behind :class:`~repro.labeling.kernel.decoder.KernelDecoder`.
One :class:`DecodeEngine` owns every per-query scratch buffer — merge
slots, vertex numbering, CSR arrays, the dense Dijkstra heap — and
reuses them across queries, so :meth:`DecodeEngine.run` performs no
dict/set allocation at all (``repro lint --deep`` walks the call graph
from ``DecodeEngine.run`` and asserts exactly that; see RPL013).

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
the engine memoizes aggressively across queries: filter records are
cached per ``(fragment, fault signature)`` and whole assembled sketch
graphs per ``(source tuple, fault signature)``.  Both caches are
answer-preserving (they cache *inputs-determined* results, never
timings), capped, and dropped whenever the arena is reset or the id
universe grows.  This is what ``decode_batch`` — and any serving tier
that repeats sources or forbidden sets — amortizes.

Tracer spans follow the reference span tree — same names, same
creation order, same attribute values — which the golden traces pin.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

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
#: enough to bound memory; overflow clears (the caches are pure memo)
_FILTER_CACHE_CAP = 2048
_SKETCH_CACHE_CAP = 256

#: the numpy path pre-filters the adjacency of a settled vertex with
#: more neighbours than this (see :meth:`DecodeEngine._dijkstra`), and
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
        # fault context, rebuilt per cache-miss query in O(|F|)
        self._groups: list[tuple[bool, Fragment, Fragment | None]] = []
        self._forb_e: list[int] = []
        self._forb_v = bytearray()
        self._forb_dirty: list[int] = []
        self._np_forb = None
        self._np_forb_dirty: list[int] = []
        # memo caches (see module docstring)
        self._fcache: dict[tuple[int, int], tuple] = {}
        self._scache: dict[tuple, tuple] = {}
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
        # the numpy adjacency of the sketch assembled last (nbr list it
        # belongs to, then (nbr, wts) arrays) and the scan pre-filter's
        # per-vertex key array
        self._np_adj: tuple | None = None
        self._np_key = None
        # Dijkstra buffers (an inlined indexed binary heap + state)
        self._hkeys: list[int] = []
        self._hitems: list[int] = []
        self._hpos: list[int] = []
        self._dist: list[int] = []
        self._parent: list[int] = []
        self._settled = bytearray()
        self._settled_dirty: list[int] = []
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
        """
        self._sync()
        s = frag_s.vertex
        t = frag_t.vertex
        for frag in fault_v:
            if frag.vertex == s or frag.vertex == t:
                raise QueryError("query endpoint is inside the forbidden set")
        scache = self._scache
        skey = (tuple(frag.handle for frag in source), fsig)
        entry = scache.get(skey)
        if entry is None:
            entry = self._build_sketch(source, fault_v, fault_e, fsig)
            if len(scache) >= _SKETCH_CACHE_CAP:
                scache.clear()
            scache[skey] = entry
        (
            vlist,
            indptr,
            nbr,
            wts,
            m,
            num_unique,
            dropped_forbidden,
            dropped_protected,
        ) = entry
        nv = len(vlist)
        if tracer is not None:
            self._emit_build_spans(
                tracer,
                source,
                num_unique,
                nv,
                m,
                dropped_forbidden,
                dropped_protected,
            )
        dijkstra_span = (
            tracer.start("decode.dijkstra") if tracer is not None else None
        )
        adjacency = self._np_adj
        fast = (
            adjacency[1]
            if adjacency is not None and adjacency[0] is nbr
            else None
        )
        try:
            distance, path = self._dijkstra(
                vlist, indptr, nbr, wts, dijkstra_span, fast
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
            # every cached filter record (assembled sketches are
            # stride-free and stay valid)
            self._stride = stride
            self._fcache.clear()
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

    def _build_sketch(
        self,
        source: list[Fragment],
        fault_v: list[Fragment],
        fault_e: list[tuple[Fragment, Fragment]],
        fsig: int,
    ) -> tuple:
        """Filter + merge + CSR for one (source, fault set) combination.

        Returns the sketch-cache entry ``(vlist, indptr, nbr, wts, m,
        num_unique, dropped_forbidden, dropped_protected)`` — plain
        lists safe to hold across queries.
        """
        self._load_faults(fault_v, fault_e)
        recs = self._recs
        recs.clear()
        fcache = self._fcache
        use_np = self._use_numpy
        for frag in source:
            ckey = (frag.handle, fsig)
            rec = fcache.get(ckey)
            if rec is None:
                if use_np:
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
                if len(fcache) >= _FILTER_CACHE_CAP:
                    fcache.clear()
                fcache[ckey] = rec
            recs.append(rec)
        # unique label vertices, first-seen — the head of the local numbering
        verts = self._verts
        verts.clear()
        lookup = self._lookup
        for frag in source:
            v = frag.vertex
            if lookup[v] < 0:
                lookup[v] = len(verts)
                verts.append(v)
        num_unique = len(verts)
        if use_np:
            for v in verts:
                lookup[v] = -1
            ex, ey, ew = npops.merge_edges(
                [rec[0] for rec in recs], [rec[1] for rec in recs], self._stride
            )
            m = len(ex)
            vlist, indptr, nbr, wts, adjacency = npops.assemble_csr(
                verts, ex, ey, ew, self._np_lookup, SCAN_PREFILTER_DEGREE
            )
            # only the sketch just assembled keeps its numpy adjacency:
            # a sketch-cache hit scans scalar rather than hold a second
            # copy of every cached sketch
            self._np_adj = (nbr, adjacency) if adjacency is not None else None
            dropped_forbidden = 0
            dropped_protected = 0
            for rec in recs:
                dropped_forbidden += rec[2]
                dropped_protected += rec[3]
        else:
            self._merge_py(recs)
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
            dropped_forbidden = 0
            dropped_protected = 0
            for rec in recs:
                dropped_forbidden += rec[3]
                dropped_protected += rec[4]
        return (
            vlist,
            indptr,
            nbr,
            wts,
            m,
            num_unique,
            dropped_forbidden,
            dropped_protected,
        )

    def _load_faults(
        self,
        fault_v: list[Fragment],
        fault_e: list[tuple[Fragment, Fragment]],
    ) -> None:
        """Rebuild the per-query fault context (ball groups + bitmaps)."""
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
        twin of :func:`repro.labeling.kernel.npops.filter_fragment`.
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
        for row, start, vstart, end in frag.segments:
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

    def _merge_py(self, recs: list[tuple]) -> None:
        """First-seen min-weight merge into the ``_mx/_my/_mw`` buffers."""
        eslot = self._eslot
        eslot.clear()
        mx, my, mw = self._mx, self._my, self._mw
        mx.clear()
        my.clear()
        mw.clear()
        stride = self._stride
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
        num_unique: int,
        nv: int,
        m: int,
        dropped_forbidden: int,
        dropped_protected: int,
    ) -> None:
        """Emit the gather/filter/assembly spans of the decode span tree."""
        levels_scanned = 0
        edges_listed = 0
        row_mark = self._row_mark
        row_dirty = self._row_dirty
        for r in row_dirty:
            row_mark[r] = 0
        row_dirty.clear()
        distinct_levels = 0
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
        num_groups = len(self._groups)
        with tracer.span("decode.fragment_gather") as gather:
            gather.set("labels", len(source))
            gather.set("unique_labels", num_unique)
            gather.set("levels_scanned", levels_scanned)
            gather.set("edges_listed", edges_listed)
        with tracer.span("decode.safe_edge_filter") as filt:
            filt.set("protected_balls", num_groups)
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
    ) -> tuple[float, list[int]]:
        """Array Dijkstra from local id 0 (= ``s``) to local id 1 (= ``t``).

        The local numbering puts ``s`` at 0 and ``t`` at 1 by
        construction (they head the unique-vertex list and are always
        distinct here).  The indexed binary heap is inlined into the
        loop — a line-for-line transcription of the dense heap in
        ``tests/reference_decoder.py``, which in turn mirrors
        ``IndexedMinHeap``, so settle order, edge scans and heap
        updates match the reference hash-map Dijkstra exactly, ties
        included.

        ``fast`` is the sketch's numpy adjacency ``(nbr, wts)``, or
        None.  With it, the scan of a settled vertex ``u`` of degree
        above :data:`SCAN_PREFILTER_DEGREE` first keeps, in one
        vectorised test, the neighbours ``v`` that are unsettled with
        ``du + w`` below ``v``'s key.  A heap update during the scan
        changes only its own neighbour's key, never another vertex's
        key or heap membership, so the survivors include every
        neighbour that will update the heap; the scalar loop then runs
        over them in order, re-checking each live, and makes exactly
        the heap operations of a full scan.  ``edges_scanned`` still
        counts every neighbour.
        """
        nv = len(vlist)
        dist = self._dist
        parent = self._parent
        settled = self._settled
        hkeys = self._hkeys
        hitems = self._hitems
        hpos = self._hpos
        if len(settled) < nv:
            grow = nv - len(settled)
            settled.extend(bytes(grow))
            dist.extend([0] * grow)
            parent.extend([-1] * grow)
            hkeys.extend([0] * grow)
            hitems.extend([0] * grow)
            hpos.extend([-1] * grow)
        for u in self._settled_dirty:
            settled[u] = 0
        self._settled_dirty.clear()
        settled_dirty = self._settled_dirty
        for i in range(nv):
            hpos[i] = -1
        key = None
        if fast is not None:
            np_nbr, np_wts = fast
            key = self._np_key
            if key is None or len(key) < nv:
                key = self._np_key = _np.empty(nv, dtype=_np.int64)
            key[:nv] = _KEY_UNSEEN
            key[0] = 0
            candidates = npops.scan_candidates
        # push(source=0, key=0)
        hkeys[0] = 0
        hitems[0] = 0
        hpos[0] = 0
        size = 1
        nodes_settled = 0
        edges_scanned = 0
        heap_updates = 1  # the initial push
        while size:
            # pop the root, move the last entry up, sift it down
            du = hkeys[0]
            u = hitems[0]
            size -= 1
            hpos[u] = -1
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
                    hpos[ci] = pos
                    pos = child
                hkeys[pos] = movk
                hitems[pos] = movi
                hpos[movi] = pos
            nodes_settled += 1
            dist[u] = du
            settled[u] = 1
            settled_dirty.append(u)
            if key is not None:
                key[u] = _KEY_SETTLED
            if u == 1:
                break
            start = indptr[u]
            stop = indptr[u + 1]
            edges_scanned += stop - start
            if key is not None and stop - start > SCAN_PREFILTER_DEGREE:
                scan = candidates(np_nbr, np_wts, key, start, stop, du)
            else:
                scan = range(start, stop)
            for p in scan:
                v = nbr[p]
                if settled[v]:
                    continue
                nk = du + wts[p]
                pv = hpos[v]
                if pv < 0:
                    pos = size
                    size += 1
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
                    hpos[pi] = pos
                    pos = par
                hkeys[pos] = nk
                hitems[pos] = v
                hpos[v] = pos
                heap_updates += 1
                parent[v] = u
                if key is not None:
                    key[v] = nk
        if span is not None:
            span.add("nodes_settled", nodes_settled)
            span.add("edges_scanned", edges_scanned)
            span.add("heap_updates", heap_updates)
        if not settled[1]:
            return math.inf, []
        path = [vlist[1]]
        node = 1
        while node != 0:
            node = parent[node]
            path.append(vlist[node])
        path.reverse()
        return dist[1], path
