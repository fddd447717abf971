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
every entry point raises, and the engine never routes here (the
``use_numpy`` flag is forced off by :class:`~repro.labeling.kernel.decoder.KernelDecoder`).
"""

from __future__ import annotations

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised where numpy is absent
    np = None  # type: ignore[assignment]


def filter_fragment(frag, groups, forb_v, forb_e_keys, stride) -> tuple:
    """Safe/forbidden-filter one fragment's edges against a fault set.

    Returns ``(kept_keys, kept_weights, dropped_forbidden,
    dropped_protected)`` where the kept arrays preserve the fragment's
    scan order and the drop counts match the reference decoder's
    ``edges_dropped_forbidden`` / ``edges_dropped_protected`` tallies
    for this fragment.  ``groups`` entries are ``(is_edge_fault,
    center_a, center_b)`` fragments whose protected-ball bitmaps must
    already be built; ``forb_v`` is a boolean bitmap over vertex ids
    (or None when no fault forbids any vertex) and ``forb_e_keys`` a
    list of ``a * stride + b`` keys for forbidden edges.
    """
    if frag.key_stride != stride:
        frag.np_key = frag.np_ex * stride + frag.np_ey
        frag.key_stride = stride
    if not groups and forb_v is None and not forb_e_keys:
        return frag.np_key, frag.np_ew, 0, 0
    ex = frag.np_ex
    ey = frag.np_ey
    lvl = frag.np_lvl
    isv = frag.np_isv
    key = frag.np_key
    safe = np.ones(len(ex), dtype=bool)
    if groups:
        # only virtual edges still safe are tested against the next
        # fault: like the scalar rule's early exit, an edge stops being
        # checked once one protected ball drops it
        live = np.flatnonzero(isv)
        for is_edge, center_a, center_b in groups:
            lv = lvl[live]
            x = ex[live]
            y = ey[live]
            both = frag.np_both[live]
            xc = frag.np_xc[live]
            ball_a = center_a.ball_np
            x_in_a = ball_a[lv, x]
            y_in_a = ball_a[lv, y]
            if not is_edge:
                dropped = np.where(
                    both, x_in_a & y_in_a, np.where(xc, x_in_a, y_in_a)
                )
            else:
                ball_b = center_b.ball_np
                x_in_b = ball_b[lv, x]
                y_in_b = ball_b[lv, y]
                crossing = (x_in_a & y_in_b) | (x_in_b & y_in_a)
                net_a = np.where(xc, x_in_a, y_in_a)
                net_b = np.where(xc, x_in_b, y_in_b)
                dropped = np.where(both, crossing, net_a & net_b)
            safe[live[dropped]] = False
            live = live[~dropped]
    if forb_v is not None or forb_e_keys:
        if forb_v is not None:
            bad = forb_v[ex] | forb_v[ey]
        else:
            bad = np.zeros(len(ex), dtype=bool)
        for fk in forb_e_keys:
            bad |= key == fk
        keep_graph = ~bad
    else:
        keep_graph = None
    if keep_graph is None:
        keep = safe | ~isv
        dropped_forbidden = 0
    else:
        keep = np.where(isv, safe, keep_graph)
        dropped_forbidden = int(np.count_nonzero(~keep_graph & ~isv))
    dropped_protected = int(np.count_nonzero(~safe & isv))
    return key[keep], frag.np_ew[keep], dropped_forbidden, dropped_protected


def merge_edges(key_parts, weight_parts, stride) -> tuple:
    """First-seen min-weight merge of per-fragment kept-edge arrays.

    Replicates the reference ``edge_weights`` dict exactly: edge identity
    order is first occurrence across the concatenated scan order, and
    each edge keeps the minimum weight ever listed for it.  Returns
    ``(ex, ey, ew)`` int64 arrays in that first-seen order.
    """
    keys = np.concatenate(key_parts)
    weights = np.concatenate(weight_parts)
    if not len(keys):
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    order = np.argsort(keys, kind="stable")
    keys_sorted = keys[order]
    weights_sorted = weights[order]
    starts = np.empty(len(keys_sorted), dtype=bool)
    starts[0] = True
    np.not_equal(keys_sorted[1:], keys_sorted[:-1], out=starts[1:])
    start_idx = np.flatnonzero(starts)
    min_weights = np.minimum.reduceat(weights_sorted, start_idx)
    first_seen = order[start_idx]
    seen_order = np.argsort(first_seen, kind="stable")
    unique_keys = keys_sorted[start_idx][seen_order]
    ex = unique_keys // stride
    ey = unique_keys - ex * stride
    return ex, ey, min_weights[seen_order]


def assemble_csr(unique_vertices, ex, ey, ew, lookup) -> tuple:
    """Local-id CSR of the merged sketch edges, in reference adjacency order.

    ``unique_vertices`` (the query's label vertices, first-seen order)
    get the lowest local ids, then edge endpoints in first-seen order —
    the exact insertion order of the reference adjacency dict.  Per
    vertex, neighbors appear in merged-edge order with the ``x`` side
    of an edge before its ``y`` side, again matching the reference
    append order, so the array Dijkstra scans edges in the identical
    sequence.  ``lookup`` is a reusable int64 array filled with -1; it
    is restored before returning.  Returns ``(verts, indptr, nbr,
    wts)`` as plain Python lists ready for the scalar Dijkstra.
    """
    m = len(ex)
    k = len(unique_vertices)
    pts = np.empty(k + 2 * m, dtype=np.int64)
    pts[:k] = unique_vertices
    pts[k::2] = ex
    pts[k + 1 :: 2] = ey
    uniq, first_idx = np.unique(pts, return_index=True)
    verts = uniq[np.argsort(first_idx, kind="stable")]
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
    edge_order = np.argsort(src, kind="stable")
    counts = np.bincount(src, minlength=nv)
    indptr = np.zeros(nv + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    lookup[verts] = -1
    return (
        verts.tolist(),
        indptr.tolist(),
        dst[edge_order].tolist(),
        wts2[edge_order].tolist(),
    )
