"""Forbidden-set distance oracle: the table-of-labels construction.

"Observe that one can construct an oracle O_G for G from the labeling
scheme by storing in some table T the label of each vertex u …  Hence,
the size of the oracle is at most n times the label length."

The oracle stores *serialized* labels — queries deserialize exactly the
labels they need (``T[u]``, ``T[v]`` and ``T[x]`` for the faults),
mirroring the paper's query procedure, and ``size_bits`` reports the
real storage.  The size is independent of how many faults queries will
carry — the property experiment E10 contrasts with recompute baselines.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.exceptions import QueryError
from repro.graphs.graph import Graph
from repro.labeling.construction import LabelingOptions
from repro.labeling.encoding import encode_label
from repro.labeling.kernel import Fragment, KernelDecoder
from repro.labeling.query import FaultSet, QueryResult, normalize_faults
from repro.labeling.scheme import ForbiddenSetLabeling

if TYPE_CHECKING:
    from repro.obs.registry import Registry
    from repro.obs.trace import Tracer


class ForbiddenSetDistanceOracle:
    """Centralized ``(1+ε)``-approximate forbidden-set distance oracle.

    Optional ``obs`` (a :class:`repro.obs.Registry`) and ``tracer``
    hooks record query counts, label decodes and label-cache hits, and
    trace the decode pipeline.  Both default to off and never change
    answers.

    Queries run on one long-lived
    :class:`~repro.labeling.kernel.KernelDecoder`, which loads each
    stored label's bytes straight into its arena: a label is parsed at
    most once, and every later load of the same bytes is served from the
    arena's content-keyed cache.
    """

    def __init__(
        self,
        graph: Graph,
        epsilon: float,
        options: LabelingOptions | None = None,
        obs: "Registry | None" = None,
        tracer: "Tracer | None" = None,
    ) -> None:
        scheme = ForbiddenSetLabeling(graph, epsilon, options=options)
        self._epsilon = epsilon
        self._num_vertices = graph.num_vertices
        self._edge_set = {(min(u, v), max(u, v)) for u, v in graph.edges()}
        self._obs = obs
        self._tracer = tracer
        self._table: list[bytes] = [
            encode_label(scheme.label(v)) for v in graph.vertices()
        ]
        # room for every stored label, so none is ever parsed twice
        self._decoder = KernelDecoder(max_labels=max(4096, graph.num_vertices))

    def _load(self, vertex: int) -> Fragment:
        if not 0 <= vertex < self._num_vertices:
            raise QueryError(f"vertex {vertex} out of range")
        arena = self._decoder.arena
        hits = arena.hits
        frag = self._decoder.load(self._table[vertex])
        if self._obs is not None and arena.hits == hits:
            self._obs.counter(
                "repro_oracle_label_decodes_total",
                "Stored labels parsed into the decoder's arena while "
                "answering queries.",
            ).inc()
        elif self._obs is not None:
            self._obs.counter(
                "repro_oracle_memo_hits_total",
                "Label loads served from the decoder arena's "
                "content-keyed cache instead of being parsed.",
            ).inc()
        return frag

    def query(
        self,
        s: int,
        t: int,
        vertex_faults: Iterable[int] = (),
        edge_faults: Iterable[tuple[int, int]] = (),
    ) -> QueryResult:
        """``(1+ε)``-approximate ``d_{G\\F}(s, t)`` from the stored table.

        Each stored label is parsed at most once over the oracle's
        lifetime: fault inputs are deduplicated up front, and every
        later load of the same vertex — in this query or any other — is
        served from the decoder arena's content-keyed cache.
        """
        vertex_faults, edge_faults = normalize_faults(vertex_faults, edge_faults)
        for a, b in edge_faults:
            if (a, b) not in self._edge_set:
                raise QueryError(f"forbidden edge ({a}, {b}) is not in the graph")
        load = self._load
        faults = FaultSet(
            vertex_labels=[load(f) for f in vertex_faults],
            edge_labels=[(load(a), load(b)) for a, b in edge_faults],
        )
        result = self._decoder.decode(
            load(s), load(t), faults, tracer=self._tracer
        )
        if self._obs is not None:
            self._obs.counter(
                "repro_oracle_queries_total",
                "Forbidden-set distance queries answered by the oracle.",
            ).inc()
        return result

    def size_bits(self) -> int:
        """Total storage of the oracle in bits (n encoded labels)."""
        return 8 * sum(len(entry) for entry in self._table)

    def max_label_bits(self) -> int:
        """The label length (longest stored label) in bits."""
        return 8 * max(len(entry) for entry in self._table)
