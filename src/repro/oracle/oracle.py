"""Forbidden-set distance oracle: the table-of-labels construction.

"Observe that one can construct an oracle O_G for G from the labeling
scheme by storing in some table T the label of each vertex u …  Hence,
the size of the oracle is at most n times the label length."

:class:`LabelDatabase` is that table T: the *serialized* label of every
vertex plus the scheme parameters.  Queries deserialize exactly the
labels they need (``T[u]``, ``T[v]`` and ``T[x]`` for the faults),
mirroring the paper's query procedure, and ``size_bits`` reports the
real storage.  The size is independent of how many faults queries will
carry — the property experiment E10 contrasts with recompute baselines.

:class:`ForbiddenSetDistanceOracle` is the same table built in memory
from a graph; :meth:`LabelDatabase.load` reads one from a ``.fsdl``
file, whose format lives in :mod:`repro.oracle.persistence`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable

from repro.exceptions import EncodingError, LabelCorruptionError, QueryError
from repro.graphs.graph import Graph
from repro.labeling.construction import LabelingOptions
from repro.labeling.encoding import DECODE_ERRORS, decode_label, encode_label
from repro.labeling.kernel import Fragment, KernelDecoder
from repro.labeling.label import VertexLabel
from repro.labeling.query import FaultSet, QueryResult, normalize_faults
from repro.labeling.scheme import ForbiddenSetLabeling

if TYPE_CHECKING:
    from repro.obs.trace import Tracer


class LabelDatabase:
    """A table of stored labels answering queries from their bytes only.

    See :func:`~repro.oracle.persistence.save_labels` for a round trip
    through a ``.fsdl`` stream.
    """

    def __init__(
        self,
        encoded_labels: list[bytes],
        epsilon: float,
        c: int,
        top_level: int,
        version: int | None = None,
        quarantined: dict[int, str] | None = None,
    ) -> None:
        self._table = encoded_labels
        self.epsilon = epsilon
        self.c = c
        self.top_level = top_level
        # the .fsdl format version the table was read from (None when
        # it was built in memory)
        self.version = version
        self._quarantined = dict(quarantined or {})
        # one long-lived decoder for every query, with room for every
        # stored label: each is parsed from its bytes at most once
        self._decoder = KernelDecoder(max_labels=max(4096, len(encoded_labels)))

    @classmethod
    def load(cls, path_or_file, strict: bool = True) -> "LabelDatabase":
        """Read a database written by :func:`~repro.oracle.persistence.save_labels`.

        ``strict=True`` (default) fails fast: any integrity violation —
        bad header checksum, bad label checksum, truncation, trailing
        garbage — raises :class:`EncodingError` (checksum failures use
        the :class:`LabelCorruptionError` subclass).  ``strict=False``
        *quarantines* labels whose checksum fails instead of raising;
        the database stays queryable and only a query that touches a
        quarantined label raises.  Structural damage (bad magic,
        truncation, lying lengths) is fatal in both modes — framing
        cannot be recovered.
        """
        # the file format is imported on first use, so that building an
        # oracle in memory never loads it
        from repro.oracle.persistence import read_database

        if hasattr(path_or_file, "read"):
            return read_database(path_or_file, strict)
        with open(path_or_file, "rb") as handle:
            return read_database(handle, strict)

    # -- integrity ---------------------------------------------------------

    def verify(self) -> list[int]:
        """Re-check every stored label; return the corrupt vertex ids.

        A label is corrupt if it was quarantined at load time or if its
        bytes fail to decode into a structurally valid label.  An empty
        list means the whole database is healthy.
        """
        bad = set(self._quarantined)
        for vertex, data in enumerate(self._table):
            if vertex in bad:
                continue
            try:
                decode_label(data)
            except DECODE_ERRORS:
                # explicit quarantine: the vertex id joins the corrupt
                # list the caller must act on
                bad.add(vertex)
        return sorted(bad)

    @property
    def quarantined(self) -> dict[int, str]:
        """Vertices quarantined by a ``strict=False`` load (id → reason)."""
        return dict(self._quarantined)

    # -- queries ----------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of stored labels."""
        return len(self._table)

    def encoded(self, vertex: int) -> bytes:
        """The raw stored bytes of one label, *only* if trustworthy.

        Raises :class:`QueryError` for an out-of-range vertex and
        :class:`LabelCorruptionError` for a label quarantined by a
        ``strict=False`` load — quarantined bytes must never escape as
        if they were servable data.
        """
        if not 0 <= vertex < len(self._table):
            raise QueryError(f"vertex {vertex} out of range")
        reason = self._quarantined.get(vertex)
        if reason is not None:
            raise LabelCorruptionError(f"label {vertex} is quarantined: {reason}")
        return self._table[vertex]

    def label(self, vertex: int) -> VertexLabel:
        """Decode one stored label.

        Raises :class:`QueryError` for an out-of-range vertex and
        :class:`LabelCorruptionError` when the stored bytes are
        quarantined or fail to decode.
        """
        return self._decoded(vertex, decode_label)

    def _decoded(self, vertex: int, decode):
        """``decode`` of a vertex's trusted bytes, failures translated."""
        data = self.encoded(vertex)
        try:
            return decode(data)
        except EncodingError as exc:
            raise LabelCorruptionError(f"label {vertex}: {exc}") from exc
        except DECODE_ERRORS as exc:  # corrupt bitstream: index/value errors
            raise LabelCorruptionError(
                f"label {vertex} failed to decode: {exc!r}"
            ) from exc

    def query(
        self,
        s: int,
        t: int,
        vertex_faults: Iterable[int] = (),
        edge_faults: Iterable[tuple[int, int]] = (),
        tracer: "Tracer | None" = None,
    ) -> QueryResult:
        """Forbidden-set distance query served from the stored bytes.

        Fault inputs are deduplicated (repeated vertices, both
        orientations of an edge), and the database's one decoder loads
        each stored label's bytes straight into its arena, parsing them
        at most once over the database's lifetime.  A ``tracer`` records
        the decode pipeline as a span tree without changing the answer.
        """
        vertex_faults, edge_faults = normalize_faults(vertex_faults, edge_faults)

        def load(vertex: int) -> Fragment:
            return self._decoded(vertex, self._decoder.load)

        faults = FaultSet(
            vertex_labels=[load(f) for f in vertex_faults],
            edge_labels=[(load(a), load(b)) for a, b in edge_faults],
        )
        return self._decoder.decode(load(s), load(t), faults, tracer=tracer)

    def connectivity(
        self,
        s: int,
        t: int,
        vertex_faults: Iterable[int] = (),
        edge_faults: Iterable[tuple[int, int]] = (),
    ) -> bool:
        """Exact connectivity in ``G \\ F``."""
        return not math.isinf(
            self.query(s, t, vertex_faults, edge_faults).distance
        )

    def size_bits(self) -> int:
        """Total stored label bytes, in bits."""
        return 8 * sum(len(entry) for entry in self._table)


class ForbiddenSetDistanceOracle(LabelDatabase):
    """Centralized ``(1+ε)``-approximate forbidden-set distance oracle.

    The table of a graph's encoded labels, built in memory: it answers
    queries exactly as a :class:`LabelDatabase` loaded from disk does,
    and knows the graph only to reject a forbidden edge that is not in
    it.
    """

    def __init__(
        self,
        graph: Graph,
        epsilon: float,
        options: LabelingOptions | None = None,
    ) -> None:
        scheme = ForbiddenSetLabeling(graph, epsilon, options=options)
        params = scheme.params
        super().__init__(
            [encode_label(scheme.label(v)) for v in graph.vertices()],
            epsilon=epsilon,
            c=params.c,
            top_level=params.top_level,
        )
        self._edge_set = {(min(u, v), max(u, v)) for u, v in graph.edges()}

    def query(
        self,
        s: int,
        t: int,
        vertex_faults: Iterable[int] = (),
        edge_faults: Iterable[tuple[int, int]] = (),
        tracer: "Tracer | None" = None,
    ) -> QueryResult:
        """``(1+ε)``-approximate ``d_{G\\F}(s, t)`` from the stored table.

        A forbidden edge must be an edge of the graph; everything else
        is :meth:`LabelDatabase.query`.
        """
        vertex_faults, edge_faults = normalize_faults(vertex_faults, edge_faults)
        for a, b in edge_faults:
            if (a, b) not in self._edge_set:
                raise QueryError(f"forbidden edge ({a}, {b}) is not in the graph")
        return super().query(s, t, vertex_faults, edge_faults, tracer=tracer)
