"""One judge: ground truth and every verdict rule.

The paper's guarantee is one inequality,
``d_{G\\F}(s, t) ≤ δ ≤ (1+ε)·d_{G\\F}(s, t)`` — Theorem 2.1 for decoded
distances, Theorem 2.7 for routed hops.  :func:`check_guarantee` states
it once, and every check in the package calls it: :class:`Judge`'s
rules below — served answers of the scenario runner (library
scenarios, the traffic battery, serve-chaos), decoded probes of the
crash and rollout batteries, ``repro rollout``'s spot checks and the
network chaos battery's packets — and
:meth:`~repro.analysis.stretch.StretchReport.record`, which classifies
the stretch tables (``evaluate_stretch``, E12b, E13, E14).

* **exact** — no missing labels; the guarantee (so ``δ = 0`` when
  ``d_true = 0``);
* **degraded** — no distance; at least one missing label; the lower
  bound is at most ``d_true``, and an infinite lower bound ("certainly
  unreachable") is allowed only when the truth is infinite;
* every non-exact outcome carries a reason, and an unknown status is a
  violation;
* an answer from a label generation the judge was never told about is
  a violation — each answer is judged against the graph of the
  generation that produced it (:meth:`Judge.record`);
* a query marked exact (a scenario's ``query ... exact=1`` row: a
  probe after every shard healed) must be answered exactly;
* gateway outcomes only: a shed carries a reason from
  :data:`~repro.service.frontend.SHED_REASONS` and no backend answer; a
  served outcome lands within ``deadline + 2·attempt_timeout_ms + 1``
  (the backend may overshoot its budget by one bounded attempt); and
  every submitted request resolves — no dangling future, no missing
  arrival;
* **routes** — a delivered route runs from ``s`` to ``t`` over edges of
  the generation's graph, avoids every failed router and link, and has
  ``hops == len(route) − 1``; then ``δ = hops`` (``∞`` if undelivered)
  passes the guarantee, whose upper side applies only once every live
  router knows every failure.

Ground truth is one BFS per (generation, ``s``, vertex faults, edge
faults); the whole distance map is cached, so every ``t`` and the
fault-free baseline of a detour column are read from it.

The judge returns a :class:`Verdict` — the broken rules, the measured
stretch and the checks it spent; the caller keeps the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.graphs.graph import Graph
from repro.graphs.traversal import bfs_distances_avoiding
from repro.service.frontend import SHED_REASONS

#: absolute tolerance of the stretch and lower-bound rules
EPS = 1e-9

#: the two breaches of the guarantee, which the stretch tables count apart
REACHABILITY = "reachability"
INEQUALITY = "inequality"

_ANSWER_STATUSES = ("exact", "degraded")
_GATEWAY_STATUSES = ("exact", "degraded", "shed")


def check_guarantee(
    value: float, d_true: float, bound: float
) -> tuple[str | None, float | None]:
    """The paper's guarantee for one answer ``δ = value``, ``d = d_true``.

    ``δ`` and ``d`` are both finite or both infinite (else
    :data:`REACHABILITY`), and then ``d ≤ δ ≤ bound·d + EPS`` (else
    :data:`INEQUALITY`; ``bound = math.inf`` keeps only the lower side).
    Returns ``(breach, stretch)``: None when it holds, and ``δ / d`` for
    a finite pair with ``d > 0`` (else None).
    """
    if math.isinf(value) != math.isinf(d_true):
        return REACHABILITY, None
    if math.isinf(d_true):
        return None, None
    stretch = value / d_true if d_true > 0 else None
    if value < d_true or value > bound * d_true + EPS:
        return INEQUALITY, stretch
    return None, stretch


@dataclass(frozen=True)
class Verdict:
    """The judge's ruling on one outcome.

    ``problems`` lists every rule the outcome broke (empty when it
    passed); ``stretch`` is ``δ / d_true`` of an exact answer (or a
    route's hop count) with ``0 < d_true < ∞`` (None otherwise);
    ``checks`` is 1 for the outcome plus 1 when a served answer was
    judged against the truth — for a route, one per rule group it got
    through (delivery, route, hop count).
    """

    problems: tuple[str, ...] = ()
    stretch: float | None = None
    checks: int = 1

    @property
    def ok(self) -> bool:
        """True when the outcome broke no rule."""
        return not self.problems


class Judge:
    """Ground truth per label generation, and every verdict rule."""

    def __init__(
        self, graph: Graph, stretch_bound: float, version: int = 0
    ) -> None:
        self.stretch_bound = stretch_bound
        self._graphs: dict[int, Graph] = {version: graph}
        self._truth: dict[tuple, dict[int, int]] = {}

    def record(self, version: int, graph: Graph) -> None:
        """Register the graph committed generation ``version`` answers for."""
        self._graphs[version] = graph

    # -- ground truth -------------------------------------------------------

    def distance(
        self, version: int, s: int, t: int, vertex_faults=(), edge_faults=()
    ) -> float:
        """True ``d_{G\\F}(s, t)`` in generation ``version`` (inf if cut).

        One BFS per (generation, ``s``, vertex faults, edge faults); the
        whole distance map is cached, so every other ``t`` is free.
        """
        key = (
            version,
            s,
            frozenset(vertex_faults),
            frozenset((min(a, b), max(a, b)) for a, b in edge_faults),
        )
        dist = self._truth.get(key)
        if dist is None:
            dist = bfs_distances_avoiding(
                self._graphs[version], s, key[2], key[3]
            )
            self._truth[key] = dist
        return dist.get(t, math.inf)

    # -- verdicts -----------------------------------------------------------

    def judge_answer(
        self, answer, s: int, t: int, vertex_faults=(), edge_faults=(),
        exact_required: bool = False,
    ) -> Verdict:
        """Rule on one backend answer (a ``QueryOutcome``) to ``(s, t, F)``.

        ``exact_required`` marks a query the healed tier must answer
        exactly; any other status breaks that rule.
        """
        problem = _status_problem(
            answer.status, answer.reason, _ANSWER_STATUSES
        )
        if problem is not None:
            return Verdict((problem,))
        verdict = self._against_truth(
            answer.status, answer, s, t, vertex_faults, edge_faults
        )
        if exact_required and answer.status != "exact":
            missing = ", ".join(str(m) for m in answer.missing)
            return Verdict(
                verdict.problems + (
                    f"marked exact but answered {answer.status}: "
                    f"{answer.reason} ({missing})",
                ),
                verdict.stretch,
                verdict.checks,
            )
        return verdict

    def judge_distance(
        self, value: float, s: int, t: int, vertex_faults=(),
        edge_faults=(), version: int = 0,
    ) -> Verdict:
        """Rule on one distance decoded outside the serving tier (the
        crash and rollout batteries' probes): the guarantee alone."""
        if version not in self._graphs:
            return Verdict((f"answered from unknown label generation {version}",))
        d_true = self.distance(version, s, t, vertex_faults, edge_faults)
        problems, stretch = _guarantee_problems(
            f"{s}->{t}: answer", value, d_true, self.stretch_bound
        )
        return Verdict(problems, stretch)

    def judge_route(
        self, delivery, s: int, t: int, vertex_faults=(), edge_faults=(),
        aware: bool = True,
    ) -> Verdict:
        """Rule on one routed packet (a ``DeliveryReport``) from ``s`` to
        ``t`` on generation 0's graph (a network has one).

        The faults are the truly failed routers and links; ``aware`` says
        every live router knew every failure when the packet left, which
        is when Theorem 2.7's upper bound applies.
        """
        d_true = self.distance(0, s, t, vertex_faults, edge_faults)
        hops = delivery.hops if delivery.delivered else math.inf
        bound = self.stretch_bound if aware else math.inf
        breach, stretch = check_guarantee(hops, d_true, bound)
        if breach == REACHABILITY:
            return Verdict((
                f"delivered={delivery.delivered} but true distance is "
                f"{d_true} — crossed or invented a cut",
            ), checks=0)
        if not delivery.delivered:
            return Verdict()
        route = delivery.route
        problem = _route_problem(
            self._graphs[0], route, s, t, frozenset(vertex_faults),
            {(min(a, b), max(a, b)) for a, b in edge_faults},
        )
        if problem is not None:
            return Verdict((problem,))
        problems = []
        if hops != len(route) - 1:
            problems.append(f"hops={hops} but route has {len(route) - 1} edges")
        if breach == INEQUALITY:
            problems.append(
                f"{hops} hops beats the true distance {d_true} — route "
                "cannot be real" if hops < d_true else
                f"{hops} hops exceeds {bound:.3f}×{d_true} at full "
                "awareness — stretch past the scheme's bound"
            )
        return Verdict(tuple(problems), stretch, checks=3)

    def judge_request(
        self, outcome, default_deadline_ms: float, attempt_timeout_ms: float
    ) -> Verdict:
        """Rule on one resolved gateway outcome (a ``GatewayOutcome``)."""
        problem = _status_problem(
            outcome.status, outcome.reason, _GATEWAY_STATUSES
        )
        if problem is not None:
            return Verdict((problem,))
        if outcome.status == "shed":
            problems = []
            if outcome.reason not in SHED_REASONS:
                problems.append(f"shed with non-shed reason {outcome.reason}")
            if outcome.outcome is not None:
                problems.append("shed outcome carries a backend answer")
            return Verdict(tuple(problems))
        request = outcome.request
        deadline = (
            default_deadline_ms if request.deadline_ms is None
            else request.deadline_ms
        )
        slack = 2 * attempt_timeout_ms + 1.0
        late: tuple[str, ...] = ()
        if outcome.total_ms > deadline + slack + EPS:
            late = (
                f"served {outcome.total_ms:.2f} ms after arrival but the "
                f"deadline was {deadline:.2f} ms (+{slack:.2f} slack) — a "
                "silent timeout",
            )
        verdict = self._against_truth(
            outcome.status, outcome.outcome, request.s, request.t,
            request.vertex_faults, request.edge_faults,
        )
        return Verdict(
            late + verdict.problems, verdict.stretch, verdict.checks
        )

    def judge_resolution(self, scheduled: int, futures: list) -> list[str]:
        """The no-silent-drop rule: every request arrived and resolved."""
        problems = []
        if len(futures) != scheduled:
            problems.append(
                f"{scheduled} requests scheduled but only {len(futures)} "
                "arrivals fired"
            )
        for index, future in enumerate(futures):
            if not future.done():
                problems.append(
                    f"request {index}: future never resolved — work was "
                    "silently dropped"
                )
        return problems

    def _against_truth(
        self, status: str, answer, s: int, t: int, vertex_faults, edge_faults
    ) -> Verdict:
        if answer.version not in self._graphs:
            return Verdict((
                f"answered from unknown label generation {answer.version}",
            ))
        d_true = self.distance(
            answer.version, s, t, vertex_faults, edge_faults
        )
        if status == "exact":
            problems, stretch = _exact_problems(
                answer, d_true, self.stretch_bound
            )
        else:
            problems, stretch = _degraded_problems(answer, d_true), None
        return Verdict(problems, stretch, checks=2)


def _status_problem(status: str, reason, statuses: tuple) -> str | None:
    if status not in statuses:
        return f"unknown status {status!r}"
    if status != "exact" and reason is None:
        return "non-exact outcome without an explicit reason"
    return None


def _exact_problems(
    answer, d_true: float, bound: float
) -> tuple[tuple[str, ...], float | None]:
    if answer.missing:
        return ("exact answer with missing labels",), None
    return _guarantee_problems("exact answer", answer.distance, d_true, bound)


def _guarantee_problems(
    subject: str, value: float, d_true: float, bound: float
) -> tuple[tuple[str, ...], float | None]:
    breach, stretch = check_guarantee(value, d_true, bound)
    if breach == REACHABILITY:
        return (
            f"{subject} {value} disagrees with true distance {d_true} "
            "on reachability",
        ), None
    if breach == INEQUALITY:
        return (
            f"{subject} {value} outside [{d_true}, "
            f"{bound:.3f}×{d_true}] — silently wrong",
        ), stretch
    return (), stretch


def _route_problem(
    graph: Graph, route, s: int, t: int, failed_v, failed_e
) -> str | None:
    if not route or route[0] != s or route[-1] != t:
        return f"route endpoints are {route[:1]}...{route[-1:]}"
    for u, v in zip(route, route[1:]):
        if not graph.has_edge(u, v):
            return f"hop ({u}, {v}) is not an edge"
        if (min(u, v), max(u, v)) in failed_e:
            return f"hop ({u}, {v}) crosses a failed link"
    crossed = set(route) & failed_v
    if crossed:
        return f"route visits failed routers {sorted(crossed)}"
    return None


def _degraded_problems(answer, d_true: float) -> tuple[str, ...]:
    if answer.distance is not None:
        return (
            "degraded answer carries an unqualified distance "
            f"{answer.distance}",
        )
    if not answer.missing:
        return ("degraded answer without any missing label",)
    if math.isinf(answer.lower_bound):
        if not math.isinf(d_true):
            return (
                "claims 'certainly unreachable' but the true distance is "
                f"{d_true}",
            )
    elif answer.lower_bound > d_true + EPS:
        return (
            f"degraded lower bound {answer.lower_bound} exceeds the true "
            f"distance {d_true}",
        )
    return ()
