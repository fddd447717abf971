"""The edge-removal rollout lifecycle of the full-stack runner.

Scenario replays roll out label generations that remove one graph
edge: plan the relabel against the current graph, stage the new
generation, then commit or abort it.
:class:`EdgeRollouts` keeps that state once — a lazily built relabeler
and coordinator, the one staged ``(version, plan)``, the next version
number and the current graph — and records each committed
generation's graph in a :class:`~repro.service.judge.Judge`, so an
answer pinned to that generation is judged against the right graph.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.exceptions import RolloutError
from repro.graphs.graph import Graph
from repro.rollout.coordinator import RolloutCoordinator
from repro.rollout.incremental import (
    GraphChange,
    IncrementalRelabeler,
    RelabelPlan,
)
from repro.service.store import ShardedLabelStore

if TYPE_CHECKING:
    from repro.obs.registry import Registry
    from repro.service.judge import Judge


class EdgeRollouts:
    """Edge-removal rollouts against one durable store.

    Every method raises :class:`~repro.exceptions.RolloutError` when
    the request does not fit the lifecycle: staging while another
    rollout is staged, removing an edge the current graph lacks, or
    resolving when nothing is staged.
    """

    def __init__(
        self,
        store: ShardedLabelStore,
        graph: Graph,
        epsilon: float,
        judge: "Judge",
        obs: "Registry | None" = None,
    ) -> None:
        self._store = store
        self._epsilon = epsilon
        self._judge = judge
        self._obs = obs
        self._tools: (
            tuple[IncrementalRelabeler, RolloutCoordinator] | None
        ) = None
        #: the graph of the committed label generation
        self.graph = graph
        #: the staged-but-unresolved ``(version, plan)``, if any
        self.staged: tuple[int, RelabelPlan] | None = None
        self.next_version = store.committed_version + 1

    def _ensure(self) -> tuple[IncrementalRelabeler, RolloutCoordinator]:
        if self._tools is None:
            self._tools = (
                IncrementalRelabeler(self.graph, self._epsilon, obs=self._obs),
                RolloutCoordinator(self._store, obs=self._obs),
            )
        return self._tools

    @property
    def coordinator(self) -> RolloutCoordinator:
        """The store's rollout coordinator (built on first use)."""
        return self._ensure()[1]

    def plan(self, edge: tuple[int, int]) -> RelabelPlan:
        """The relabel plan that removes ``edge`` from the current graph."""
        relabeler, _ = self._ensure()
        if self.staged is not None:
            raise RolloutError("a rollout is already staged")
        a, b = edge
        edge = (min(a, b), max(a, b))
        if not self.graph.has_edge(*edge):
            raise RolloutError(f"edge {edge} is not in the current graph")
        return relabeler.plan(GraphChange(removed_edges=(edge,)))

    def begin(self, edge: tuple[int, int]) -> None:
        """Plan and stage the removal of ``edge`` as the next version."""
        plan = self.plan(edge)
        version = self.next_version
        self.coordinator.stage(version, plan.encoded_labels())
        self.staged = (version, plan)

    def commit(self) -> None:
        """Commit the staged generation."""
        version, plan = self._staged()
        self.coordinator.commit(version)
        self.resolve(version, plan, committed=True)

    def abort(self) -> None:
        """Abort (sweep) the staged generation."""
        version, plan = self._staged()
        self.coordinator.abort(version)
        self.resolve(version, plan, committed=False)

    def resolve(
        self, version: int, plan: RelabelPlan, committed: bool
    ) -> None:
        """Close ``version``; a commit makes its graph current and judged."""
        if committed:
            self._ensure()[0].commit(plan)
            self.graph = plan.new_graph
            self._judge.record(version, plan.new_graph)
        self.staged = None
        self.next_version = version + 1

    def _staged(self) -> tuple[int, RelabelPlan]:
        self._ensure()
        if self.staged is None:
            raise RolloutError("no rollout is staged")
        return self.staged
