"""Unit tests for the one judge: every verdict rule, one outcome at a time.

Each rule gets a hand-built outcome that breaks it (and must be
flagged) and each outcome kind gets an honest example (which must
pass), so a rule that stops firing — or starts firing on honest
answers — shows up here before any battery runs.
"""

import math

import pytest

import repro.service.judge as judge_module
from repro.gateway.gateway import GatewayOutcome, GatewayRequest
from repro.graphs.generators import path_graph
from repro.service import DegradationReason, MissingLabel, QueryOutcome
from repro.service.judge import Judge

# path 0-1-2-3: d(0, 2) = 2, and faulting vertex 1 cuts 0 off
BOUND = 1.5
DEADLINE_MS = 100.0
ATTEMPT_TIMEOUT_MS = 20.0
SLACK_MS = 2 * ATTEMPT_TIMEOUT_MS + 1.0
MISSING = (MissingLabel(vertex=1, role="vertex_fault", error="down"),)


def make_judge() -> Judge:
    return Judge(path_graph(4), BOUND)


def answer(status="exact", distance=2.0, lower_bound=2.0, reason=None,
           missing=(), version=0, s=0, t=2):
    return QueryOutcome(
        s=s, t=t, status=status, distance=distance,
        lower_bound=lower_bound, reason=reason, missing=missing,
        retry_suggested=False, latency_ms=1.0, attempts=2, retries=0,
        hedges=0, version=version,
    )


def degraded(lower_bound=1.0, missing=MISSING, distance=None,
             reason=DegradationReason.FAULT_LABELS_UNAVAILABLE):
    return answer(status="degraded", distance=distance,
                  lower_bound=lower_bound, reason=reason, missing=missing)


def served(inner, total_ms=5.0, deadline_ms=None, vertex_faults=()):
    request = GatewayRequest(tenant="a", s=inner.s, t=inner.t,
                             vertex_faults=vertex_faults,
                             deadline_ms=deadline_ms)
    return GatewayOutcome(
        request=request, status=inner.status, reason=inner.reason,
        outcome=inner, queue_ms=0.0, total_ms=total_ms, coalesced=False,
    )


def shed(reason=DegradationReason.SHED_OVERLOAD, inner=None):
    return GatewayOutcome(
        request=GatewayRequest(tenant="a", s=0, t=2), status="shed",
        reason=reason, outcome=inner, queue_ms=1.0, total_ms=1.0,
        coalesced=False,
    )


def rule(outcome, vertex_faults=(), edge_faults=(), s=0, t=2):
    return make_judge().judge_answer(outcome, s, t, vertex_faults,
                                     edge_faults)


def request_rule(outcome):
    return make_judge().judge_request(outcome, DEADLINE_MS,
                                      ATTEMPT_TIMEOUT_MS)


class TestExact:
    def test_honest_answer_passes_and_reports_stretch(self):
        verdict = rule(answer(distance=2.0))
        assert verdict.ok, verdict.problems
        assert verdict.stretch == 1.0
        assert verdict.checks == 2

    def test_answer_at_the_stretch_bound_passes(self):
        verdict = rule(answer(distance=BOUND * 2))
        assert verdict.ok, verdict.problems
        assert verdict.stretch == BOUND

    def test_below_the_truth_is_flagged(self):
        verdict = rule(answer(distance=1.0))
        assert "silently wrong" in verdict.problems[0]
        assert verdict.stretch == 0.5

    def test_just_above_the_stretch_bound_is_flagged(self):
        verdict = rule(answer(distance=BOUND * 2 + 1e-6))
        assert "silently wrong" in verdict.problems[0]

    def test_missing_labels_are_flagged(self):
        verdict = rule(answer(missing=MISSING))
        assert verdict.problems == ("exact answer with missing labels",)

    def test_finite_answer_for_a_cut_pair_is_flagged(self):
        verdict = rule(answer(distance=2.0), vertex_faults=(1,))
        assert "reachability" in verdict.problems[0]

    def test_infinite_answer_for_a_reachable_pair_is_flagged(self):
        verdict = rule(answer(distance=math.inf))
        assert "reachability" in verdict.problems[0]

    def test_honest_unreachable_answer_passes_without_stretch(self):
        verdict = rule(answer(distance=math.inf), vertex_faults=(1,))
        assert verdict.ok, verdict.problems
        assert verdict.stretch is None

    def test_zero_distance_must_be_exactly_zero(self):
        honest = rule(answer(distance=0.0, s=3, t=3), s=3, t=3)
        assert honest.ok, honest.problems
        assert honest.stretch is None
        wrong = rule(answer(distance=2.0, s=3, t=3), s=3, t=3)
        assert "silently wrong" in wrong.problems[0]

    def test_edge_faults_always_count(self):
        verdict = rule(answer(distance=2.0), edge_faults=((2, 1),))
        assert "reachability" in verdict.problems[0]


class TestDegraded:
    def test_honest_lower_bound_passes(self):
        verdict = rule(degraded(lower_bound=2.0))
        assert verdict.ok, verdict.problems
        assert verdict.stretch is None
        assert verdict.checks == 2

    def test_lower_bound_above_the_truth_is_flagged(self):
        verdict = rule(degraded(lower_bound=2.5))
        assert "exceeds the true distance" in verdict.problems[0]

    def test_certainly_unreachable_for_a_reachable_pair_is_flagged(self):
        verdict = rule(degraded(lower_bound=math.inf))
        assert "certainly unreachable" in verdict.problems[0]

    def test_certainly_unreachable_passes_when_the_pair_is_cut(self):
        verdict = rule(degraded(lower_bound=math.inf), vertex_faults=(1,))
        assert verdict.ok, verdict.problems

    def test_a_distance_is_flagged(self):
        verdict = rule(degraded(distance=2.0))
        assert "unqualified distance" in verdict.problems[0]

    def test_no_missing_label_is_flagged(self):
        verdict = rule(degraded(missing=()))
        assert "without any missing label" in verdict.problems[0]

    def test_no_reason_is_flagged_before_any_truth(self):
        verdict = rule(degraded(reason=None))
        assert verdict.problems == (
            "non-exact outcome without an explicit reason",
        )
        assert verdict.checks == 1


class TestStatusAndGeneration:
    def test_unknown_status_is_flagged(self):
        verdict = rule(answer(status="maybe"))
        assert verdict.problems == ("unknown status 'maybe'",)

    def test_backend_answers_cannot_be_shed(self):
        verdict = rule(answer(status="shed", distance=None,
                              reason=DegradationReason.SHED_OVERLOAD))
        assert verdict.problems == ("unknown status 'shed'",)

    def test_unknown_generation_is_flagged(self):
        verdict = rule(answer(version=7))
        assert verdict.problems == (
            "answered from unknown label generation 7",
        )
        assert verdict.checks == 1

    def test_recorded_generation_is_judged_on_its_own_graph(self):
        judge = make_judge()
        cut = path_graph(4).subgraph_without(removed_edges=[(1, 2)])
        judge.record(1, cut)
        old = judge.judge_answer(answer(distance=2.0, version=0), 0, 2)
        assert old.ok, old.problems
        new = judge.judge_answer(answer(distance=2.0, version=1), 0, 2)
        assert "reachability" in new.problems[0]


class TestGuarantee:
    """The one statement of ``d ≤ δ ≤ b·d``, and its two direct callers."""

    @pytest.mark.parametrize("value,d_true,bound,breach,stretch", [
        (3.0, 2.0, 1.5, None, 1.5),
        (3.0 + 1e-10, 2.0, 1.5, None, 1.5 + 5e-11),
        (3.1, 2.0, 1.5, judge_module.INEQUALITY, 1.55),
        (2.0 - 1e-12, 2.0, 1.5, judge_module.INEQUALITY, 1.0 - 5e-13),
        (0.0, 0.0, 1.5, None, None),
        (1.0, 0.0, 1.5, judge_module.INEQUALITY, None),
        (9.0, 2.0, math.inf, None, 4.5),
        (math.inf, math.inf, 1.5, None, None),
        (math.inf, 2.0, 1.5, judge_module.REACHABILITY, None),
        (2.0, math.inf, 1.5, judge_module.REACHABILITY, None),
    ])
    def test_check_guarantee(self, value, d_true, bound, breach, stretch):
        assert judge_module.check_guarantee(value, d_true, bound) == (
            breach, stretch
        )

    def test_judge_distance_uses_the_generation_graph(self):
        judge = make_judge()
        judge.record(1, path_graph(4).subgraph_without(removed_edges=[(1, 2)]))
        assert judge.judge_distance(2.0, 0, 2).ok
        assert judge.judge_distance(3.0, 0, 2).ok
        assert "silently wrong" in judge.judge_distance(3.5, 0, 2).problems[0]
        assert "reachability" in judge.judge_distance(
            2.0, 0, 2, version=1
        ).problems[0]
        assert judge.judge_distance(math.inf, 0, 2, version=1).ok
        assert judge.judge_distance(2.0, 0, 2, version=5).problems == (
            "answered from unknown label generation 5",
        )


class TestGateway:
    def test_honest_served_answers_pass(self):
        for inner in (answer(), degraded()):
            verdict = request_rule(served(inner))
            assert verdict.ok, verdict.problems
            assert verdict.checks == 2

    def test_honest_shed_passes(self):
        for reason in (DegradationReason.SHED_OVERLOAD,
                       DegradationReason.QUOTA_EXCEEDED,
                       DegradationReason.QUEUE_DEADLINE):
            verdict = request_rule(shed(reason))
            assert verdict.ok, verdict.problems
            assert verdict.checks == 1

    def test_shed_with_a_degradation_reason_is_flagged(self):
        verdict = request_rule(
            shed(DegradationReason.ENDPOINT_UNAVAILABLE)
        )
        assert "non-shed reason" in verdict.problems[0]

    def test_shed_with_a_backend_answer_is_flagged(self):
        verdict = request_rule(shed(inner=answer()))
        assert verdict.problems == ("shed outcome carries a backend answer",)

    def test_shed_without_a_reason_is_flagged(self):
        verdict = request_rule(shed(reason=None))
        assert verdict.problems == (
            "non-exact outcome without an explicit reason",
        )

    def test_late_reply_is_flagged_on_top_of_the_truth(self):
        on_time = request_rule(served(answer(),
                                      total_ms=DEADLINE_MS + SLACK_MS))
        assert on_time.ok, on_time.problems
        late = request_rule(served(answer(distance=5.0),
                                   total_ms=DEADLINE_MS + SLACK_MS + 0.01))
        assert len(late.problems) == 2
        assert "silent timeout" in late.problems[0]
        assert "silently wrong" in late.problems[1]

    def test_request_deadline_overrides_the_default(self):
        verdict = request_rule(served(answer(), total_ms=60.0,
                                      deadline_ms=10.0))
        assert "silent timeout" in verdict.problems[0]

    def test_truth_uses_the_request_faults(self):
        verdict = request_rule(served(answer(), vertex_faults=(1,)))
        assert "reachability" in verdict.problems[0]


class _Future:
    def __init__(self, done: bool) -> None:
        self._done = done

    def done(self) -> bool:
        return self._done


class TestResolution:
    def test_all_resolved_passes(self):
        futures = [_Future(True), _Future(True)]
        assert make_judge().judge_resolution(2, futures) == []

    def test_dangling_future_is_flagged(self):
        problems = make_judge().judge_resolution(
            2, [_Future(True), _Future(False)]
        )
        assert problems == [
            "request 1: future never resolved — work was silently dropped"
        ]

    def test_missing_arrival_is_flagged(self):
        problems = make_judge().judge_resolution(3, [_Future(True)])
        assert problems == ["3 requests scheduled but only 1 arrivals fired"]


class TestTruthCache:
    @pytest.fixture()
    def bfs_calls(self, monkeypatch):
        calls = []
        real = judge_module.bfs_distances_avoiding

        def counting(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(judge_module, "bfs_distances_avoiding", counting)
        return calls

    def test_one_bfs_per_generation_source_and_faults(self, bfs_calls):
        judge = make_judge()
        assert judge.distance(0, 0, 2) == 2
        assert judge.distance(0, 0, 3) == 3
        assert judge.distance(0, 0, 3, (1,)) == math.inf
        assert judge.distance(0, 0, 2, [1, 1]) == math.inf
        assert judge.distance(0, 3, 0, (), [(2, 1)]) == math.inf
        assert judge.distance(0, 3, 1, (), [(1, 2)]) == math.inf
        assert bfs_calls == [0, 0, 3]
