"""Label arena: flat int-array fragments, interned once per label load.

An object-graph decoder re-walks every label's nested dicts on every query:
``label.levels[i].edges.items()`` yields a tuple per edge, protected
balls are rebuilt as per-query dicts, and the merge keys the sketch
edges by ``(x, y)`` tuples.  The arena does that object-graph walk
**once per label load** and keeps the result as three flat edge
columns, so the per-query engine touches nothing but int arrays:

* one concatenated edge sequence per label, in the exact scan order of
  the reference decoder (levels ascending; per level, graph edges then
  virtual edges) — the merge's first-seen ordering is preserved by
  construction;
* one *segment* per level, ``(row, start, vstart, end)``: the level's
  graph edges are ``[start, vstart)`` and its virtual edges
  ``[vstart, end)``.  Every per-edge fact that never changes between
  queries — the level row, the virtual/graph flag, and the
  owner-checkability of each endpoint (Lemma 2.3's conservative owner
  rule) — follows from the segment and the label's owner, so none of
  them is stored per edge;
* per-label **protected-ball bitmaps** — for each level row, a
  byte-per-vertex membership table of ``PB_i(v) = B(v, λ_i)`` — built
  lazily the first time a label is used as a fault, then reused by
  every subsequent query naming that fault.

The columns exist once, in the representation of the arena's mode:
numpy arrays (int32 endpoints and weights, 12 bytes per edge) when the
owning decoder runs the numpy fast path, plain lists otherwise.
Interning builds them with bulk C-level calls over each level's dicts
(``map(itemgetter(0), …)``, ``np.fromiter``), never a per-edge Python
loop.

Interning is keyed by object identity: the arena pins a strong
reference to every interned :class:`~repro.labeling.label.VertexLabel`,
so a handle stays valid for the arena's lifetime and re-interning the
same object is a dict probe.  :meth:`LabelArena.reset` drops everything
when a serving tier wants to bound memory across label generations.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import Any

from repro.exceptions import QueryError
from repro.labeling.label import VertexLabel
from repro.labeling.params import lam_for_level

try:  # optional fast path; the stdlib path is always available
    import numpy as _np
except ImportError:  # pragma: no cover - exercised where numpy is absent
    _np = None  # type: ignore[assignment]

#: whether the numpy fast path can be used in this interpreter
HAVE_NUMPY = _np is not None

_first = itemgetter(0)
_second = itemgetter(1)


class Fragment:
    """One interned label: flat scan-order edge columns plus fault data.

    ``ex`` / ``ey`` / ``ew`` are the edge endpoints and weights in scan
    order — numpy arrays in a numpy-mode arena, lists otherwise — and
    ``segments`` holds one ``(row, start, vstart, end)`` tuple per
    level, ascending.  Everything on a fragment is immutable after
    :meth:`LabelArena.intern` except the lazily built protected-ball
    bitmaps ``ball``: a list of per-row bytearrays in stdlib mode, one
    flat boolean array indexed ``row * ball_bound + vertex`` in numpy
    mode.  The bitmaps are a cache fully determined by the label.
    """

    __slots__ = (
        "handle",
        "label",
        "vertex",
        "c",
        "top_level",
        "levels_sorted",
        "num_levels",
        "rows",
        "ex",
        "ey",
        "ew",
        "segments",
        "edges_listed",
        "ball",
        "ball_bound",
    )

    def __init__(self, handle: int, label: VertexLabel) -> None:
        self.handle = handle
        self.label = label
        self.vertex = label.vertex
        self.c = label.c
        self.top_level = label.top_level
        self.levels_sorted = sorted(label.levels)
        self.num_levels = len(self.levels_sorted)
        #: number of level rows in this scheme (levels c+1 .. top_level)
        self.rows = max(self.top_level - self.c, 1)
        self.ex: Any = None
        self.ey: Any = None
        self.ew: Any = None
        self.segments: list[tuple[int, int, int, int]] = []
        self.edges_listed = 0
        self.ball: Any = None
        self.ball_bound = 0

    def row_of(self, level: int) -> int:
        """The bitmap row of an absolute level id."""
        return level - (self.c + 1)


class LabelArena:
    """Interns :class:`VertexLabel` objects into flat-array fragments.

    All labels interned into one arena must come from one scheme
    (identical ``c`` and ``top_level``) — mixing raises
    :class:`~repro.exceptions.QueryError` with the message of
    :func:`~repro.labeling.query.check_compatible`.  ``use_numpy``
    picks the column representation and is fixed by the owning
    :class:`~repro.labeling.kernel.decoder.KernelDecoder`.
    """

    def __init__(self, use_numpy: bool = HAVE_NUMPY) -> None:
        if use_numpy and not HAVE_NUMPY:
            raise ValueError(
                "numpy fast path requested but numpy is not installed"
            )
        self.use_numpy = bool(use_numpy)
        self._fragments: list[Fragment] = []
        self._by_id: dict[int, Fragment] = {}
        self._id_bound = 0
        self._c: int | None = None
        self._top_level: int | None = None
        self._lam_by_row: list[int] = []
        #: bumped on every :meth:`reset`; engines watch it to drop caches
        self.generation = 0

    def __len__(self) -> int:
        return len(self._fragments)

    @property
    def id_bound(self) -> int:
        """One past the largest vertex id referenced by interned labels."""
        return self._id_bound

    @property
    def rows(self) -> int:
        """Number of level rows in the arena's scheme (0 before first intern)."""
        return len(self._lam_by_row)

    @property
    def level_base(self) -> int:
        """Absolute level id of row 0, i.e. ``c + 1`` (0 before first intern)."""
        return 0 if self._c is None else self._c + 1

    @property
    def scheme(self) -> tuple[int, int] | None:
        """The ``(c, top_level)`` pair all interned labels share, or None."""
        return None if self._c is None else (self._c, self._top_level)

    def lam_for_row(self, row: int) -> int:
        """``λ_i`` for a level row (valid once any label is interned)."""
        return self._lam_by_row[row]

    def reset(self) -> None:
        """Drop every interned fragment (used to bound arena memory)."""
        self._fragments.clear()
        self._by_id.clear()
        self._id_bound = 0
        self._c = None
        self._top_level = None
        self._lam_by_row = []
        self.generation += 1

    def fragment(self, handle: int) -> Fragment:
        """The fragment behind a handle."""
        return self._fragments[handle]

    def intern(self, label: VertexLabel) -> Fragment:
        """Flatten a label into a fragment (idempotent per object).

        The first intern fixes the arena's scheme parameters; labels
        from a different scheme are rejected with the
        :func:`~repro.labeling.query.check_compatible` message.
        """
        frag = self._by_id.get(id(label))
        if frag is not None:
            return frag
        if self._c is None:
            self._c = label.c
            self._top_level = label.top_level
            rows = max(label.top_level - label.c, 1)
            self._lam_by_row = [
                lam_for_level(label.c + 1 + row) for row in range(rows)
            ]
        elif (label.c, label.top_level) != (self._c, self._top_level):
            raise QueryError(
                "labels come from different schemes: "
                f"(c={label.c}, top={label.top_level}) vs "
                f"(c={self._c}, top={self._top_level})"
            )
        frag = Fragment(len(self._fragments), label)
        bound = label.vertex + 1
        # per level: graph edges, then virtual edges (the scan order)
        edge_maps = []
        segments = frag.segments
        end = 0
        for i in frag.levels_sorted:
            level_label = label.levels[i]
            start = end
            vstart = start + len(level_label.graph_edges)
            end = vstart + len(level_label.edges)
            segments.append((frag.row_of(i), start, vstart, end))
            edge_maps.append(level_label.graph_edges)
            edge_maps.append(level_label.edges)
            if level_label.points:
                bound = max(bound, max(level_label.points) + 1)

        xs = map(_first, chain.from_iterable(edge_maps))
        ys = map(_second, chain.from_iterable(edge_maps))
        ws = chain.from_iterable(m.values() for m in edge_maps)
        if self.use_numpy:
            frag.ex = _column(xs, end)
            frag.ey = _column(ys, end)
            frag.ew = _column(ws, end)
            if end:
                top = max(int(frag.ex.max()), int(frag.ey.max()))
                bound = max(bound, top + 1)
        else:
            frag.ex = list(xs)
            frag.ey = list(ys)
            frag.ew = list(ws)
            if end:
                bound = max(bound, max(frag.ex) + 1, max(frag.ey) + 1)
        frag.edges_listed = end
        self._fragments.append(frag)
        self._by_id[id(label)] = frag
        if bound > self._id_bound:
            self._id_bound = bound
        return frag

    def ensure_fault_tables(self, frag: Fragment) -> None:
        """Build (or re-pad) a fragment's protected-ball bitmaps.

        Called on the label-load side whenever a fragment is about to
        serve as a fault center, so the per-query engine only ever
        *reads* the bitmaps.  Bitmaps are sized to the arena-wide id
        bound; interning labels that widen the id universe invalidates
        older bitmaps, which are rebuilt here on next use.
        """
        bound = self._id_bound
        if frag.ball is not None and frag.ball_bound >= bound:
            return
        ball = [bytearray(bound) for _ in range(frag.rows)]
        for i in frag.levels_sorted:
            row = frag.row_of(i)
            lam = self._lam_by_row[row]
            table = ball[row]
            for x, d in frag.label.levels[i].points.items():
                if d <= lam:
                    table[x] = 1
        if self.use_numpy:
            frag.ball = _np.frombuffer(b"".join(ball), dtype=_np.uint8).astype(
                bool
            )
        else:
            frag.ball = ball
        frag.ball_bound = bound


def _column(values, count: int):
    """A numpy column of the ``count`` ints in ``values``.

    int32 holds every vertex id and every unit or moderate weight.  The
    values are read once, as int64, and narrowed only when all of them
    fit, so a column outside int32 (a heavy weighted graph) stays int64
    rather than wrap.
    """
    column = _np.fromiter(values, dtype=_np.int64, count=count)
    int32 = _np.iinfo(_np.int32)
    if count and (column.min() < int32.min or column.max() > int32.max):
        return column
    return column.astype(_np.int32)
