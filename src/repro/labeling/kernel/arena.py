"""Label arena: flat int-array fragments, interned once per label load.

An object-graph decoder re-walks every label's nested dicts on every query:
``label.levels[i].edges.items()`` yields a tuple per edge, protected
balls are rebuilt as per-query dicts, and the merge keys the sketch
edges by ``(x, y)`` tuples.  The arena does that object-graph walk
**once per label load** and keeps the result as parallel flat lists
(plus optional numpy mirrors), so the per-query engine touches nothing
but int arrays:

* one concatenated edge sequence per label, in the exact scan order of
  the reference decoder (levels ascending; per level, graph edges then
  virtual edges) — the merge's first-seen ordering is preserved by
  construction;
* per-edge precomputed facts that never change between queries: the
  level row, the virtual/graph flag, and the owner-checkability of each
  endpoint (Lemma 2.3's conservative owner rule);
* per-label **protected-ball bitmaps** — for each level row, a
  byte-per-vertex membership table of ``PB_i(v) = B(v, λ_i)`` — built
  lazily the first time a label is used as a fault, then reused by
  every subsequent query naming that fault.

Interning is keyed by object identity: the arena pins a strong
reference to every interned :class:`~repro.labeling.label.VertexLabel`,
so a handle stays valid for the arena's lifetime and re-interning the
same object is a dict probe.  :meth:`LabelArena.reset` drops everything
when a serving tier wants to bound memory across label generations.
"""

from __future__ import annotations

from repro.exceptions import QueryError
from repro.labeling.label import VertexLabel
from repro.labeling.params import lam_for_level

try:  # optional fast path; the stdlib path is always available
    import numpy as _np
except ImportError:  # pragma: no cover - exercised where numpy is absent
    _np = None  # type: ignore[assignment]

#: whether the numpy fast path can be used in this interpreter
HAVE_NUMPY = _np is not None


class Fragment:
    """One interned label: flat scan-order arrays plus cached fault data.

    Everything on a fragment is immutable after :meth:`LabelArena.intern`
    except the lazily built protected-ball bitmaps (``ball`` /
    ``ball_np``) and the stride-stamped numpy key cache — both are
    caches whose contents are fully determined by the label.
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
        "lvl",
        "isv",
        "xc",
        "yc",
        "edges_listed",
        "points_x",
        "points_d",
        "ball",
        "ball_bound",
        "np_ex",
        "np_ey",
        "np_ew",
        "np_lvl",
        "np_isv",
        "np_both",
        "np_xc",
        "np_key",
        "key_stride",
        "ball_np",
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
        self.ex: list[int] = []
        self.ey: list[int] = []
        self.ew: list[int] = []
        self.lvl: list[int] = []
        self.isv: list[int] = []
        self.xc: list[int] = []
        self.yc: list[int] = []
        self.points_x: list[list[int]] = [[] for _ in range(self.rows)]
        self.points_d: list[list[int]] = [[] for _ in range(self.rows)]
        self.ball: list[bytearray] | None = None
        self.ball_bound = 0
        self.np_ex = None
        self.np_ey = None
        self.np_ew = None
        self.np_lvl = None
        self.np_isv = None
        self.np_both = None
        self.np_xc = None
        self.np_key = None
        self.key_stride = 0
        self.ball_np = None
        self.edges_listed = 0

    def row_of(self, level: int) -> int:
        """The bitmap/points row of an absolute level id."""
        return level - (self.c + 1)


class LabelArena:
    """Interns :class:`VertexLabel` objects into flat-array fragments.

    All labels interned into one arena must come from one scheme
    (identical ``c`` and ``top_level``) — mixing raises
    :class:`~repro.exceptions.QueryError` with the message of
    :func:`~repro.labeling.query.check_compatible`.
    """

    def __init__(self) -> None:
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
        owner = label.vertex
        lowest = label.c + 1
        ex, ey, ew = frag.ex, frag.ey, frag.ew
        lvl, isv, xc, yc = frag.lvl, frag.isv, frag.xc, frag.yc
        for i in frag.levels_sorted:
            level_label = label.levels[i]
            row = frag.row_of(i)
            owner_is_net = i == lowest
            px = frag.points_x[row]
            pd = frag.points_d[row]
            for x, d in level_label.points.items():
                px.append(x)
                pd.append(d)
                if x >= bound:
                    bound = x + 1
            for (x, y), weight in level_label.graph_edges.items():
                ex.append(x)
                ey.append(y)
                ew.append(weight)
                lvl.append(row)
                isv.append(0)
                xc.append(1)
                yc.append(1)
                if x >= bound:
                    bound = x + 1
                if y >= bound:
                    bound = y + 1
            for (x, y), weight in level_label.edges.items():
                ex.append(x)
                ey.append(y)
                ew.append(weight)
                lvl.append(row)
                isv.append(1)
                xc.append(1 if (owner_is_net or x != owner) else 0)
                yc.append(1 if (owner_is_net or y != owner) else 0)
                if x >= bound:
                    bound = x + 1
                if y >= bound:
                    bound = y + 1
        frag.edges_listed = len(ex)
        if _np is not None:
            frag.np_ex = _np.asarray(ex, dtype=_np.int64)
            frag.np_ey = _np.asarray(ey, dtype=_np.int64)
            frag.np_ew = _np.asarray(ew, dtype=_np.int64)
            frag.np_lvl = _np.asarray(lvl, dtype=_np.int64)
            frag.np_isv = _np.asarray(isv, dtype=bool)
            np_xc = _np.asarray(xc, dtype=bool)
            np_yc = _np.asarray(yc, dtype=bool)
            frag.np_xc = np_xc
            frag.np_both = np_xc & np_yc
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
        for row in range(frag.rows):
            lam = self._lam_by_row[row]
            table = ball[row]
            px = frag.points_x[row]
            pd = frag.points_d[row]
            for k in range(len(px)):
                if pd[k] <= lam:
                    table[px[k]] = 1
        frag.ball = ball
        frag.ball_bound = bound
        if _np is not None:
            if bound:
                frag.ball_np = _np.frombuffer(
                    b"".join(ball), dtype=_np.uint8
                ).reshape(frag.rows, bound).astype(bool)
            else:
                frag.ball_np = _np.zeros((frag.rows, 0), dtype=bool)

    def ensure_keys(self, frag: Fragment, stride: int) -> None:
        """Refresh a fragment's cached numpy merge keys for a stride.

        The merge keys edges as ``x * stride + y``; the stride grows
        with the id universe, so cached keys carry the stride they were
        computed for and are rebuilt when it changes (rare: only when
        new labels widen the universe between queries).
        """
        if _np is None:
            return
        if frag.key_stride != stride:
            frag.np_key = frag.np_ex * stride + frag.np_ey
            frag.key_stride = stride
