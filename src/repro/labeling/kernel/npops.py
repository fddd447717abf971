"""Vectorized filter/merge primitives for the kernel's numpy fast path.

These functions are *exact* vector translations of the reference
decoder's scalar clauses — the protected-ball safety rules of
Lemma 2.3 (with the conservative owner-edge extension) for virtual
edges, the forbidden-vertex/edge clause for real graph edges, and the
first-seen min-weight merge the reference ``edge_weights`` dict performs.
Given the same fragments and fault set they keep exactly the same
edges with exactly the same weights in exactly the same first-seen
order, which is what makes the numpy and stdlib paths byte-equal (a
property pinned by ``tests/test_kernel_arena.py``).

The module imports numpy lazily-at-module-load: when numpy is absent
every entry point raises, and the engine never routes here (without
numpy every :class:`~repro.labeling.kernel.arena.LabelArena` is in
stdlib mode, and the engine takes its mode from the arena).
"""

from __future__ import annotations

from array import array

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised where numpy is absent
    np = None  # type: ignore[assignment]


def edge_keys(xs, ys, stride) -> "np.ndarray":
    """The merge keys ``x * stride + y`` of an edge column pair, as int64."""
    key = xs.astype(np.int64)
    key *= stride
    key += ys
    return key


def forbidden(xs, ys, forb_v, forb_e_keys, stride) -> "np.ndarray":
    """Which graph edges the fault set forbids, as a boolean mask.

    ``forb_v`` is a boolean bitmap over vertex ids (or None when no
    fault forbids a vertex) and ``forb_e_keys`` a list of ``a * stride
    + b`` keys of forbidden edges.
    """
    if forb_v is not None:
        bad = forb_v[xs] | forb_v[ys]
    else:
        bad = np.zeros(len(xs), dtype=bool)
    if forb_e_keys:
        key = edge_keys(xs, ys, stride)
        for fk in forb_e_keys:
            bad |= key == fk
    return bad


def filter_graph_edges(xs, ys, ws, forb_v, forb_e_keys, stride) -> tuple:
    """A run of graph edges less the forbidden ones, as a filter record.

    Returns ``(kept_keys, kept_weights, dropped_forbidden, 0)``: the
    record of a level holding only these edges once every virtual edge
    is dropped (see :func:`filter_fragment`).
    """
    bad = forbidden(xs, ys, forb_v, forb_e_keys, stride)
    keep = np.logical_not(bad)
    return (
        edge_keys(xs[keep], ys[keep], stride), ws[keep],
        int(np.count_nonzero(bad)), 0,
    )


def filter_fragment(frag, caught, groups, forb_v, forb_e_keys, stride) -> tuple:
    """Safe/forbidden-filter one fragment's edges against a fault set.

    Returns ``(kept_keys, kept_weights, dropped_forbidden,
    dropped_protected)`` where the kept arrays preserve the fragment's
    scan order and the drop counts match the reference decoder's
    ``edges_dropped_forbidden`` / ``edges_dropped_protected`` tallies
    for this fragment.  ``groups`` entries are ``(is_edge_fault,
    center_a, center_b)`` fragments whose protected-ball bitmaps must
    already be built, with ``ball_bound == stride``; ``forb_v`` and
    ``forb_e_keys`` are the forbidden vertices and edges of
    :func:`forbidden`.  Merge keys ``x * stride + y`` are computed here,
    per call and for kept edges only, rather than stored on the
    fragment.

    ``caught`` is :func:`caught_rows` for this fragment and fault set:
    the levels a fault catches whole drop their virtual edges without a
    per-edge test, which runs once, over the span of edges from the
    first level left to it to the last.
    """
    ex = frag.ex
    ey = frag.ey
    segments = frag.segments
    dropped_protected = 0
    # the first and last level whose virtual edges are tested one by one
    first = last = -1
    for k, (row, _, vstart, end) in enumerate(segments):
        if vstart == end:
            continue
        if caught[row]:
            dropped_protected += end - vstart
            continue
        if first < 0:
            first = k
        last = k
    keep = np.zeros(len(ex), dtype=bool)
    if first >= 0:
        span = segments[first : last + 1]
        lo = span[0][2]
        hi = span[-1][3]
        # flat bitmap index row * stride + vertex of each endpoint
        base = np.repeat(
            np.array([row * stride for row, _, _, _ in span], dtype=np.intp),
            [end - max(start, lo) for _, start, _, end in span],
        )
        x = ex[lo:hi]
        y = ey[lo:hi]
        ix = base + x
        iy = base + y
        # above the lowest level an owner endpoint's ball membership is
        # unknown (Lemma 2.3's conservative rule): test the net endpoint
        # in its place.  Rows ascend, so those levels form a suffix.
        above = next(
            (max(start, lo) - lo for row, start, _, _ in span if row), hi - lo
        )
        owner = frag.vertex
        x_owned = np.flatnonzero(x[above:] == owner) + above
        y_owned = np.flatnonzero(y[above:] == owner) + above
        x_net = iy[x_owned]
        y_net = ix[y_owned]
        ix[x_owned] = x_net
        iy[y_owned] = y_net
        # an edge is unsafe when any fault's balls catch it, so testing
        # every fault (not stopping at the first) is exact
        unsafe = np.zeros(hi - lo, dtype=bool)
        for is_edge, center_a, center_b in groups:
            ball_a = center_a.ball
            if not is_edge:
                unsafe |= ball_a[ix] & ball_a[iy]
            else:
                ball_b = center_b.ball
                unsafe |= (ball_a[ix] & ball_b[iy]) | (ball_b[ix] & ball_a[iy])
        # graph edges and caught levels inside the span are ruled elsewhere
        inner = [
            (caught[row], start, vstart, end)
            for row, start, vstart, end in span[1:]
            if start < vstart or caught[row]
        ]
        for whole, start, vstart, end in inner:
            unsafe[start - lo : (end if whole else vstart) - lo] = False
        np.logical_not(unsafe, out=keep[lo:hi])
        dropped_protected += int(np.count_nonzero(unsafe))
        for whole, _, vstart, end in inner:
            if whole:
                keep[vstart:end] = False
    # the forbidden-vertex/edge clause, on graph edges only
    dropped_forbidden = 0
    for _, start, vstart, _ in segments:
        if start == vstart:
            continue
        bad = forbidden(
            ex[start:vstart], ey[start:vstart], forb_v, forb_e_keys, stride
        )
        np.logical_not(bad, out=keep[start:vstart])
        dropped_forbidden += int(np.count_nonzero(bad))
    return (
        edge_keys(ex[keep], ey[keep], stride), frag.ew[keep],
        dropped_forbidden, dropped_protected,
    )


def span_keys(frag, spans, stride) -> tuple:
    """Merge keys and weights of a fragment's edges in ``[start, end)`` spans.

    In span order, as int64 keys and the fragment's weight column.
    """
    if len(spans) == 1:
        ((start, end),) = spans
        return (
            edge_keys(frag.ex[start:end], frag.ey[start:end], stride),
            frag.ew[start:end],
        )
    pick = np.concatenate([np.arange(start, end) for start, end in spans])
    return edge_keys(frag.ex[pick], frag.ey[pick], stride), frag.ew[pick]


def caught_rows(frag, groups, stride) -> list:
    """Per level row, whether some fault catches every virtual edge there.

    All false when ``frag`` is not closed.  In a closed fragment the
    safe-edge rule tests only the points of ``frag.pid`` (a level's
    virtual edges join points it lists; above the lowest level an owner
    endpoint is replaced by the other one).  So a vertex fault whose
    protected ball at a row holds every such point catches every virtual
    edge of that level, and so does an edge fault whose two balls both
    hold them.  One gather over the tested points per ball, reduced per
    row, replaces two gathers per virtual edge.
    """
    caught = [False] * frag.rows
    if not frag.closed or not len(frag.pstart):
        return caught
    prow = frag.prow
    starts = frag.pstart
    idx = np.multiply(prow, stride, dtype=np.intp)
    idx += frag.pid
    # per row holding tested points: does one fault hold all of them?
    whole = np.zeros(len(starts), dtype=bool)
    for is_edge, center_a, center_b in groups:
        held = np.logical_and.reduceat(center_a.ball[idx], starts)
        if is_edge:
            held &= np.logical_and.reduceat(center_b.ball[idx], starts)
        whole |= held
    for row, hit in zip(prow[starts].tolist(), whole.tolist()):
        caught[row] = hit
    return caught


def stable_order(values, bound: int) -> "np.ndarray":
    """``np.argsort(values, kind="stable")`` for ints in ``[0, bound)``.

    Below 2^15 the values are sorted as int16, which numpy sorts stably
    by radix sort: the same permutation as sorting them as int64, in
    about a third of the time on a sketch's edge list.
    """
    if bound <= 1 << 15:
        values = values.astype(np.int16)
    return np.argsort(values, kind="stable")


def merge_edges(key_parts, weight_parts, stride) -> tuple:
    """First-seen min-weight merge of per-fragment kept-edge arrays.

    Replicates the reference ``edge_weights`` dict exactly: edge identity
    order is first occurrence across the concatenated scan order, and
    each edge keeps the minimum weight ever listed for it.  Returns
    ``(ex, ey, ew, cover)``: int64 arrays in that first-seen order, and
    ``cover``, which is None unless the first part alone lists every
    key at its minimum weight (the later parts add no key and lower no
    weight).  Then ``cover`` is the merged edges as sorted merge keys
    and their weights, two ``array('q')`` columns — what the stdlib
    path builds, so the cache entries of the two paths stay equal.
    """
    keys = np.concatenate(key_parts)
    weights = np.concatenate(weight_parts)
    if not len(keys):
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty, (array("q"), array("q"))
    order = stable_order(keys, stride * stride)
    keys_sorted = keys[order]
    weights_sorted = weights[order]
    starts = np.empty(len(keys_sorted), dtype=bool)
    starts[0] = True
    np.not_equal(keys_sorted[1:], keys_sorted[:-1], out=starts[1:])
    start_idx = np.flatnonzero(starts)
    min_weights = np.minimum.reduceat(weights_sorted, start_idx)
    first_seen = order[start_idx]
    # first positions are distinct, so any sort orders them the same way
    seen_order = np.argsort(first_seen)
    sorted_keys = keys_sorted[start_idx]
    unique_keys = sorted_keys[seen_order]
    ex = unique_keys // stride
    ey = unique_keys - ex * stride
    cover = None
    head = len(key_parts[0])
    if first_seen.max() < head:
        # every key is listed first by the first part; does a later
        # listing lower its weight?  Not if each key's first listing
        # already has its minimum weight (as in labels that list every
        # key at its one exact distance); else compare the first part's
        # own minima
        if np.array_equal(weights_sorted[start_idx], min_weights):
            lowered = False
        else:
            top = np.iinfo(weights_sorted.dtype).max
            head_min = np.minimum.reduceat(
                np.where(order < head, weights_sorted, top), start_idx
            )
            lowered = not np.array_equal(head_min, min_weights)
        if not lowered:
            cover = (
                array("q", sorted_keys.astype(np.int64, copy=False).tobytes()),
                array("q", min_weights.astype(np.int64, copy=False).tobytes()),
            )
    return ex, ey, min_weights[seen_order], cover


def covers(keys, weights, rec_keys, rec_weights) -> bool:
    """Whether a filtered record adds nothing to a merged edge set.

    ``keys`` / ``weights`` are a ``cover`` of :func:`merge_edges`;
    ``rec_keys`` / ``rec_weights`` are one fragment's kept merge keys
    and weights.  True when every record key is a merged key and no
    record weight is below that key's merged weight.
    """
    if not len(rec_keys):
        return True
    if not len(keys):
        return False
    merged = np.frombuffer(keys, dtype=np.int64)
    idx = np.searchsorted(merged, rec_keys)
    np.minimum(idx, len(merged) - 1, out=idx)
    if not np.array_equal(merged[idx], rec_keys):
        return False
    return bool(
        (rec_weights >= np.frombuffer(weights, dtype=np.int64)[idx]).all()
    )


def assemble_csr(ex, ey, ew, lookup, scan_degree) -> tuple:
    """Local-id CSR of the merged sketch edges, in reference adjacency order.

    Local ids follow edge endpoints in first-seen order (the ``x`` side
    of an edge before its ``y`` side); the Dijkstra compares keys only,
    so how the vertices are numbered changes no settle order, count or
    path.  Per vertex, neighbors appear in merged-edge order with the
    ``x`` side of an edge before its ``y`` side, matching the reference
    append order, so the array Dijkstra scans edges in the identical
    sequence.  ``lookup`` is a reusable int64 array filled with -1 and
    as long as the id universe; it is restored before returning.
    Returns ``(verts, indptr, nbr, wts, adjacency)``: the first four as
    plain Python lists ready for the scalar Dijkstra, and ``adjacency``
    the int64 arrays ``(nbr, wts)`` for its scan pre-filter — or
    ``None`` when no vertex has more than ``scan_degree`` neighbours
    (the pre-filter would never run), or when a weight falls outside
    int32, where a key sum might not fit int64.
    """
    m = len(ex)
    if not m:
        return [], [0], [], [], None
    pts = np.empty(2 * m, dtype=np.int64)
    pts[0::2] = ex
    pts[1::2] = ey
    order = stable_order(pts, len(lookup))
    sorted_pts = pts[order]
    starts = np.empty(len(pts), dtype=bool)
    starts[0] = True
    np.not_equal(sorted_pts[1:], sorted_pts[:-1], out=starts[1:])
    verts = pts[np.sort(order[starts])]
    nv = len(verts)
    lookup[verts] = np.arange(nv, dtype=np.int64)
    fx = lookup[ex]
    fy = lookup[ey]
    src = np.empty(2 * m, dtype=np.int64)
    src[0::2] = fx
    src[1::2] = fy
    dst = np.empty(2 * m, dtype=np.int64)
    dst[0::2] = fy
    dst[1::2] = fx
    wts2 = np.empty(2 * m, dtype=np.int64)
    wts2[0::2] = ew
    wts2[1::2] = ew
    edge_order = stable_order(src, nv)
    counts = np.bincount(src, minlength=nv)
    indptr = np.zeros(nv + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    lookup[verts] = -1
    nbr = dst[edge_order]
    wts = wts2[edge_order]
    int32 = np.iinfo(np.int32)
    fast = (
        counts.max() > scan_degree
        and ew.min() >= int32.min
        and ew.max() <= int32.max
    )
    return (
        verts.tolist(),
        indptr.tolist(),
        nbr.tolist(),
        wts.tolist(),
        (nbr, wts) if fast else None,
    )


def scan_candidates(nbr, wts, key, start, stop, du) -> list:
    """Positions in ``[start, stop)`` whose neighbour a scan may update.

    ``key`` holds each local vertex's heap key — the int64 maximum while
    it is unseen, the int64 minimum once settled — so a position passes
    when ``du + wts[p] < key[nbr[p]]``: exactly the neighbours that may
    take a push or a decrease-key.  Returned ascending, as Python ints.
    """
    hits = (wts[start:stop] + du < key[nbr[start:stop]]).nonzero()[0]
    hits += start
    return hits.tolist()
