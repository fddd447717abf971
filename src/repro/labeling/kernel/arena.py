"""Label arena: flat int-array fragments, built once per label.

An object-graph decoder re-walks every label's nested dicts on every query:
``label.levels[i].edges.items()`` yields a tuple per edge, protected
balls are rebuilt as per-query dicts, and the merge keys the sketch
edges by ``(x, y)`` tuples.  The arena does that work **once per
label** and keeps the result as three flat edge columns, so the
per-query engine touches nothing but int arrays:

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
* per-level **ball points** (each point id with its distance from the
  owner), from which the **protected-ball bitmaps** — for each level
  row, a byte-per-vertex membership table of ``PB_i(v) = B(v, λ_i)`` —
  are built lazily the first time a label is used as a fault, then
  reused by every subsequent query naming that fault.  The same points
  let the safe-edge filter rule on a whole level at once: a level's
  virtual edges join only points it lists (``closed``), so a fault
  whose balls hold all of them catches every such edge.

The columns exist once, in the representation of the arena's mode:
numpy arrays (int32 endpoints and weights, 12 bytes per edge) when the
owning decoder runs the numpy fast path, plain lists otherwise.

Fragments come from two doors:

* :meth:`LabelArena.load` takes a label's **stored bytes** straight to a
  fragment through :func:`repro.labeling.encoding.read_label`, the
  format's one parser; no :class:`~repro.labeling.label.VertexLabel`
  and no per-edge tuple or dict is built.  Its one content-keyed cache
  reuses work at two levels: a whole label, keyed by its bytes, and a
  level's edge section, keyed by its point order and its exact bit text
  (a held section matches when the text at the read position starts
  with it; parsing is deterministic, so a match reads exactly the
  records it read before, and fragments share that section's arrays).
  In the whole-graph regime every label of a graph repeats most of its
  edge sections, so a table parses each of them once.  A loaded
  fragment keeps, per level, the :class:`Section` it was built from,
  and each section counts the fragments that hold it, so the engine
  can do the work of a section once for all of them.
* :meth:`LabelArena.intern` flattens a label object, keyed by object
  identity (the arena pins a strong reference to it, so the key stays
  valid), for callers that hold labels rather than bytes.

:meth:`LabelArena.reset` drops everything when a serving tier wants to
bound memory across label generations.  A fragment a caller still
holds stays usable: the decoder re-admits it into the arena under a new
handle.
"""

from __future__ import annotations

from itertools import chain
from operator import eq, itemgetter
from typing import Any

from repro.exceptions import QueryError
from repro.labeling.encoding import read_label, read_section
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


class Section:
    """One parsed level edge section, held by every fragment that lists it.

    ``graph`` and ``virtual`` are the level's two edge maps as ``(xs,
    ys, ws)`` columns in the arena's representation, ``top`` is the
    largest endpoint id (-1 for none) and ``looped`` says whether a
    virtual edge joins a point to itself.  ``holders`` counts the loaded
    fragments built from the section.  Sections compare by identity: two
    fragments hold the same one exactly when the loader matched its
    point order and bit text.
    """

    __slots__ = ("graph", "virtual", "top", "looped", "holders")

    def __init__(self, graph: tuple, virtual: tuple, top: int,
                 looped: bool) -> None:
        self.graph = graph
        self.virtual = virtual
        self.top = top
        self.looped = looped
        self.holders = 0


class Fragment:
    """One label in flat form: scan-order edge columns plus fault data.

    ``ex`` / ``ey`` / ``ew`` are the edge endpoints and weights in scan
    order — numpy arrays in a numpy-mode arena, lists otherwise — and
    ``segments`` holds one ``(row, start, vstart, end)`` tuple per
    level, ascending.  ``points`` holds one ``(row, ids, dists)`` entry
    per level: the level's points and their distances from the owner,
    the data of its protected balls.  ``closed`` says that every level
    lies in the scheme's rows and that each of its virtual edges joins
    two distinct points the level lists: then the safe-edge rule tests
    only listed points, which lets the filter rule on a whole level from
    its points (see :func:`repro.labeling.kernel.npops.filter_fragment`).
    In numpy mode ``pid`` / ``prow`` hold, for a closed fragment, every
    point that rule tests and its level row (each level's points, less
    the owner above the lowest level), and ``pstart`` the offset where
    each row's points begin.  ``sections`` holds, for a loaded
    fragment, the :class:`Section` of each level (empty for an interned
    one).  Everything on a fragment is immutable after it is built
    except the lazily built protected-ball bitmaps ``ball`` (a list of
    per-row bytearrays in stdlib mode, one flat boolean array indexed
    ``row * ball_bound + vertex`` in numpy mode), ``reduces`` (None
    until the engine tests it: whether the levels after the first add no
    edge key and lower no weight relative to the first level's section),
    both fully determined by the label, and the arena membership
    ``handle`` / ``generation``.
    """

    __slots__ = (
        "handle",
        "generation",
        "arena",
        "vertex",
        "c",
        "top_level",
        "levels_sorted",
        "num_levels",
        "rows",
        "bound",
        "ex",
        "ey",
        "ew",
        "segments",
        "edges_listed",
        "points",
        "closed",
        "pid",
        "prow",
        "pstart",
        "sections",
        "reduces",
        "ball",
        "ball_bound",
    )

    def __init__(self, vertex: int, c: int, top_level: int) -> None:
        self.handle = -1
        self.generation = -1
        self.arena: LabelArena | None = None
        self.vertex = vertex
        self.c = c
        self.top_level = top_level
        self.levels_sorted: list[int] = []
        self.num_levels = 0
        #: number of level rows in this scheme (levels c+1 .. top_level)
        self.rows = max(top_level - c, 1)
        #: one past the largest vertex id the label references
        self.bound = vertex + 1
        self.ex: Any = None
        self.ey: Any = None
        self.ew: Any = None
        self.segments: list[tuple[int, int, int, int]] = []
        self.edges_listed = 0
        self.points: list[tuple[int, list[int], list[int]]] = []
        self.closed = False
        self.pid: Any = None
        self.prow: Any = None
        self.pstart: Any = None
        self.sections: tuple[Section, ...] = ()
        self.reduces: bool | None = None
        self.ball: Any = None
        self.ball_bound = 0

    def row_of(self, level: int) -> int:
        """The bitmap row of an absolute level id."""
        return level - (self.c + 1)


class LabelArena:
    """Builds flat-array fragments from stored bytes or label objects.

    All fragments admitted into one arena must come from one scheme
    (identical ``c`` and ``top_level``).  :meth:`intern` rejects a
    mismatch with the :class:`~repro.exceptions.QueryError` message of
    :func:`~repro.labeling.query.check_compatible`; :meth:`load`, like a
    decoder whose caller switched schemes, starts over.  ``use_numpy``
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
        # id(label) -> (label, fragment), the label pinned so the id
        # stays its own
        self._by_id: dict[int, tuple[VertexLabel, Fragment]] = {}
        # the content-keyed cache: whole labels by bytes, edge sections
        # by point order (holding their bit text and their columns)
        self._by_bytes: dict[bytes, Fragment] = {}
        self._sections: dict[tuple[int, ...], tuple[str, Section]] = {}
        self._id_bound = 0
        self._c: int | None = None
        self._top_level: int | None = None
        self._lam_by_row: list[int] = []
        #: bumped on every :meth:`reset`; engines watch it to drop caches
        self.generation = 0
        #: :meth:`load` calls that parsed bytes / were served from the cache
        self.parses = 0
        self.hits = 0

    def __len__(self) -> int:
        return len(self._fragments)

    @property
    def id_bound(self) -> int:
        """One past the largest vertex id referenced by admitted labels."""
        return self._id_bound

    @property
    def rows(self) -> int:
        """Number of level rows in the arena's scheme (0 before first admit)."""
        return len(self._lam_by_row)

    @property
    def level_base(self) -> int:
        """Absolute level id of row 0, i.e. ``c + 1`` (0 before first admit)."""
        return 0 if self._c is None else self._c + 1

    @property
    def scheme(self) -> tuple[int, int] | None:
        """The ``(c, top_level)`` pair all admitted labels share, or None."""
        return None if self._c is None else (self._c, self._top_level)

    def reset(self) -> None:
        """Drop every fragment and the cache (used to bound arena memory)."""
        self._fragments.clear()
        self._by_id.clear()
        self._by_bytes.clear()
        self._sections.clear()
        self._id_bound = 0
        self._c = None
        self._top_level = None
        self._lam_by_row = []
        self.generation += 1

    # -- the two doors ------------------------------------------------------

    def load(self, data: bytes) -> Fragment:
        """A label's stored bytes as a fragment, parsed at most once.

        Raises only :data:`repro.labeling.encoding.DECODE_ERRORS`, for
        exactly the bytes :func:`~repro.labeling.encoding.decode_label`
        rejects, and a failed load leaves no fragment behind.  For bytes
        that parse, the fragment equals ``intern(decode_label(data))``:
        an edge key listed twice in one map keeps its first position and
        its last weight.
        """
        if type(data) is not bytes:
            data = bytes(data)
        frag = self._by_bytes.get(data)
        if frag is not None:
            self.hits += 1
            return frag
        (vertex, c, top_level, _), parsed = read_label(data, self._section)
        # a level stored twice (only corrupt bytes do that) keeps its
        # last copy, as decode_label's dict does
        levels = {level: (ids, dists, section)
                  for level, ids, dists, section in parsed}
        frag = self._fragment(vertex, c, top_level, levels)
        if self.scheme is not None and (c, top_level) != self.scheme:
            self.reset()  # the caller switched schemes: start over
        self._admit(frag)
        self._by_bytes[data] = frag
        self.parses += 1
        return frag

    def intern(self, label: VertexLabel) -> Fragment:
        """Flatten a label object into a fragment (idempotent per object).

        The first admitted label fixes the arena's scheme parameters;
        labels from a different scheme are rejected with the
        :func:`~repro.labeling.query.check_compatible` message.
        """
        held = self._by_id.get(id(label))
        if held is not None:
            return held[1]
        frag = Fragment(label.vertex, label.c, label.top_level)
        frag.levels_sorted = sorted(label.levels)
        frag.num_levels = len(frag.levels_sorted)
        bound = frag.bound
        # per level: graph edges, then virtual edges (the scan order)
        edge_maps = []
        end = 0
        for i in frag.levels_sorted:
            level_label = label.levels[i]
            row = frag.row_of(i)
            start = end
            vstart = start + len(level_label.graph_edges)
            end = vstart + len(level_label.edges)
            frag.segments.append((row, start, vstart, end))
            edge_maps.append(level_label.graph_edges)
            edge_maps.append(level_label.edges)
            points = level_label.points
            frag.points.append((row, list(points), list(points.values())))
            if points:
                bound = max(bound, max(points) + 1)
        # bulk C-level calls over the dicts, no per-edge Python loop
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
        frag.bound = bound
        frag.closed = _closed(frag, self.use_numpy)
        if frag.closed and self.use_numpy:
            _tested_points(frag)
        self._admit(frag)
        self._by_id[id(label)] = (label, frag)
        return frag

    def member(self, item: "Fragment | VertexLabel") -> Fragment:
        """The arena's fragment for a label object or a fragment.

        A fragment of this arena from before a :meth:`reset` is
        re-admitted under a new handle, so a query that holds fragments
        across a reset still decodes.  A fragment of another arena is
        rejected with :class:`~repro.exceptions.QueryError`: its handle
        means nothing here.
        """
        if not isinstance(item, Fragment):
            return self.intern(item)
        if item.arena is not self:
            raise QueryError("fragment was loaded by another decoder")
        if item.generation != self.generation:
            self._admit(item)
        return item

    # -- internals ----------------------------------------------------------

    def _fragment(
        self, vertex: int, c: int, top_level: int, levels: dict[int, tuple]
    ) -> Fragment:
        """A loaded fragment from per-level ``(ids, dists, section)``.

        ``section`` is the level's :class:`Section`, which the fragment
        keeps and counts itself a holder of once.  Stored edges name
        points by their index in the level's point list, so the fragment
        is closed unless a level falls outside the scheme's rows or a
        virtual edge is a loop (both only in corrupt bytes).
        """
        frag = Fragment(vertex, c, top_level)
        frag.levels_sorted = sorted(levels)
        frag.num_levels = len(levels)
        frag.closed = True
        sections: list[Section] = []
        # per level: graph edges, then virtual edges (the scan order)
        parts: list = []
        end = 0
        for level in frag.levels_sorted:
            ids, dists, section = levels[level]
            if section not in sections:
                section.holders += 1
            sections.append(section)
            row = frag.row_of(level)
            if section.looped or not 0 <= row < frag.rows:
                frag.closed = False
            start = end
            vstart = start + len(section.graph[0])
            end = vstart + len(section.virtual[0])
            frag.segments.append((row, start, vstart, end))
            frag.points.append((row, ids, dists))
            parts += (section.graph, section.virtual)
            # ids ascend (gap-coded), so the last is the largest
            frag.bound = max(
                frag.bound, section.top + 1, ids[-1] + 1 if ids else 0
            )
        frag.edges_listed = end
        frag.sections = tuple(sections)
        columns = list(zip(*parts)) if parts else [(), (), ()]
        if self.use_numpy:
            frag.ex, frag.ey, frag.ew = (
                _np.concatenate(column) if column
                else _np.empty(0, dtype=_np.int32)
                for column in columns
            )
        else:
            frag.ex, frag.ey, frag.ew = (
                list(chain.from_iterable(column)) for column in columns
            )
        if frag.closed and self.use_numpy:
            _tested_points(frag)
        return frag

    def _admit(self, frag: Fragment) -> None:
        """Give a fragment a handle in the current generation."""
        if self._c is None:
            self._c = frag.c
            self._top_level = frag.top_level
            self._lam_by_row = [
                lam_for_level(frag.c + 1 + row) for row in range(frag.rows)
            ]
        elif (frag.c, frag.top_level) != (self._c, self._top_level):
            raise QueryError(
                "labels come from different schemes: "
                f"(c={frag.c}, top={frag.top_level}) vs "
                f"(c={self._c}, top={self._top_level})"
            )
        frag.handle = len(self._fragments)
        frag.generation = self.generation
        frag.arena = self
        self._fragments.append(frag)
        if frag.bound > self._id_bound:
            self._id_bound = frag.bound

    def _section(
        self, text: str, pos: int, order: list[int]
    ) -> tuple[Section, int]:
        """A level's edge section: reused, or parsed and held.

        The held :class:`Section` for ``order`` matches only if the text
        at ``pos`` starts with its bit text.  Returns the section and the
        position after it.
        """
        key = tuple(order)
        held = self._sections.get(key)
        if held is not None and text.startswith(held[0], pos):
            return held[1], pos + len(held[0])
        (virtual, graph), end = read_section(text, pos, order)
        maps = []
        top = -1
        looped = any(map(eq, virtual[0], virtual[1]))
        for xs, ys, ws, ordered in (graph, virtual):
            if not ordered:
                # only corrupt bytes list a key twice: dict semantics,
                # as decode_label builds its maps
                merged = dict(zip(zip(xs, ys), ws))
                xs = list(map(_first, merged))
                ys = list(map(_second, merged))
                ws = list(merged.values())
            if xs:
                top = max(top, max(xs), max(ys))
            if self.use_numpy:
                maps.append(tuple(_column(v, len(v)) for v in (xs, ys, ws)))
            else:
                maps.append((xs, ys, ws))
        entry = Section(maps[0], maps[1], top, looped)
        self._sections[key] = (text[pos:end], entry)
        return entry, end

    def ensure_fault_tables(self, frag: Fragment) -> None:
        """Build (or re-pad) a fragment's protected-ball bitmaps.

        Called on the label-load side whenever a fragment is about to
        serve as a fault center, so the per-query engine only ever
        *reads* the bitmaps.  Bitmaps are sized to the arena-wide id
        bound; admitting labels that widen the id universe (or a reset
        that narrows it) invalidates older bitmaps, which are rebuilt
        here on next use.
        """
        bound = self._id_bound
        if frag.ball is not None and frag.ball_bound == bound:
            return
        ball = [bytearray(bound) for _ in range(frag.rows)]
        for row, ids, dists in frag.points:
            lam = self._lam_by_row[row]
            table = ball[row]
            for x, d in zip(ids, dists):
                if d <= lam:
                    table[x] = 1
        if self.use_numpy:
            frag.ball = _np.frombuffer(b"".join(ball), dtype=_np.uint8).astype(
                bool
            )
        else:
            frag.ball = ball
        frag.ball_bound = bound


def _closed(frag: Fragment, use_numpy: bool) -> bool:
    """Whether each level is a scheme row whose virtual edges join
    two distinct points the level lists (see :class:`Fragment`)."""
    ex = frag.ex
    ey = frag.ey
    listed: Any = _np.zeros(frag.bound, dtype=bool) if use_numpy else None
    for (row, ids, _), (_, _, vstart, end) in zip(frag.points, frag.segments):
        if not 0 <= row < frag.rows:
            return False
        xs = ex[vstart:end]
        ys = ey[vstart:end]
        if use_numpy:
            listed[ids] = True
            joined = bool(
                listed[xs].all() and listed[ys].all() and not (xs == ys).any()
            )
            listed[ids] = False
        else:
            points = set(ids)
            joined = (
                points.issuperset(xs)
                and points.issuperset(ys)
                and not any(map(eq, xs, ys))
            )
        if not joined:
            return False
    return True


def _tested_points(frag: Fragment) -> None:
    """Fill a closed numpy fragment's ``pid`` / ``prow`` / ``pstart``.

    These are the points whose ball membership the safe-edge rule
    tests, with their level rows: every listed point, except the owner
    above the lowest level, where Lemma 2.3's conservative rule tests
    an owner edge's net endpoint in the owner's place.
    """
    counts = [len(ids) for _, ids, _ in frag.points]
    pid = _column(
        chain.from_iterable(ids for _, ids, _ in frag.points), sum(counts)
    )
    prow = _np.repeat(
        _np.array([row for row, _, _ in frag.points], dtype=_np.intp), counts
    )
    tested = (pid != frag.vertex) | (prow == 0)
    frag.pid = pid[tested]
    frag.prow = prow = prow[tested]
    first = _np.ones(len(prow), dtype=bool)
    _np.not_equal(prow[1:], prow[:-1], out=first[1:])
    frag.pstart = _np.flatnonzero(first)


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
