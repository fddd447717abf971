"""Tests for the scenario-trace format: parse, validate, serialize."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ScenarioError
from repro.scenario import (
    EVENT_KINDS,
    SCHEMA_VERSION,
    ScenarioEvent,
    ScenarioTrace,
    TraceTenant,
    parse_trace,
    serialize_trace,
    trace_crc,
)
from repro.scenario import compile_trace, random_shard_plan, traffic_trace
from repro.scenario.trace import (
    V1_KINDS,
    TraceBurst,
    TraceGateway,
    TraceSLO,
    trace_version,
)
from repro.service.frontend import SHED_REASONS, DegradationReason


def rich_trace() -> ScenarioTrace:
    return ScenarioTrace(
        name="rich",
        graph_spec="grid:6x6",
        duration_ms=500.0,
        seed=11,
        base_rate_per_ms=0.25,
        window_ms=100.0,
        num_shards=4,
        replication=2,
        tenants=(
            TraceTenant("default", weight=2.0),
            TraceTenant("batch", fault_rate=0.5, deadline_ms=40.0),
        ),
        events=(
            ScenarioEvent(at_ms=50.0, kind="ball_outage", center=14,
                          radius=1, duration_ms=100.0),
            ScenarioEvent(at_ms=60.0, kind="probe", s=0, t=35,
                          faults=(14, 15), edge_faults=((0, 1),)),
            ScenarioEvent(at_ms=80.0, kind="flash_crowd", multiplier=2.5,
                          duration_ms=60.0),
            ScenarioEvent(at_ms=150.0, kind="maintenance", shards=(0, 1),
                          window_ms=40.0),
            ScenarioEvent(at_ms=250.0, kind="rollout_begin", edge=(0, 1)),
            ScenarioEvent(at_ms=300.0, kind="shard_crash", shard=2),
            ScenarioEvent(at_ms=340.0, kind="shard_restart", shard=2),
            ScenarioEvent(at_ms=400.0, kind="rollout_commit"),
            ScenarioEvent(at_ms=450.0, kind="outage", vertices=(3, 4),
                          duration_ms=30.0, fault_rate=0.5, max_faults=2),
        ),
    )


class TestRoundTrip:
    def test_parse_serialize_parse_is_identity(self):
        trace = rich_trace()
        text = serialize_trace(trace)
        parsed = parse_trace(text)
        assert parsed == trace
        assert serialize_trace(parsed) == text

    def test_comments_and_blank_lines_do_not_invalidate_crc(self):
        text = serialize_trace(rich_trace())
        lines = text.splitlines()
        noisy = "\n".join(
            ["# a comment", lines[0], "", "  # indented comment"]
            + lines[1:]
        ) + "\n"
        assert parse_trace(noisy) == rich_trace()

    def test_crc_is_content_addressed(self):
        trace = rich_trace()
        assert trace_crc(trace) == trace_crc(rich_trace())
        assert trace_crc(trace) != trace_crc(trace.with_seed(12))

    def test_with_seed_changes_only_the_seed(self):
        reseeded = rich_trace().with_seed(99)
        assert reseeded.seed == 99
        assert reseeded.events == rich_trace().events

    def test_defaults_resolve_canonically(self):
        bare = ScenarioTrace(name="bare", graph_spec="path:4",
                             duration_ms=80.0)
        assert bare.window_ms == 10.0
        assert bare.tenants == (TraceTenant("default"),)
        assert parse_trace(serialize_trace(bare)) == bare


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_property_round_trip_is_byte_identical(data):
    n_events = data.draw(st.integers(0, 5))
    at = 0.0
    events = []
    for _ in range(n_events):
        at += data.draw(st.floats(0.5, 50.0, allow_nan=False))
        kind = data.draw(st.sampled_from(
            ["ball_outage", "outage", "flash_crowd", "shard_down",
             "probe", "maintenance"]
        ))
        if kind == "ball_outage":
            events.append(ScenarioEvent(
                at_ms=at, kind=kind, center=data.draw(st.integers(0, 30)),
                radius=data.draw(st.integers(0, 3)),
                duration_ms=data.draw(st.floats(1.0, 60.0)),
            ))
        elif kind == "outage":
            vertices = tuple(sorted(data.draw(st.sets(
                st.integers(0, 30), min_size=1, max_size=4
            ))))
            events.append(ScenarioEvent(
                at_ms=at, kind=kind, vertices=vertices,
                duration_ms=data.draw(st.floats(1.0, 60.0)),
            ))
        elif kind == "flash_crowd":
            events.append(ScenarioEvent(
                at_ms=at, kind=kind,
                multiplier=data.draw(st.floats(0.1, 5.0)),
                duration_ms=data.draw(st.floats(1.0, 60.0)),
            ))
        elif kind == "shard_down":
            events.append(ScenarioEvent(
                at_ms=at, kind=kind, shard=data.draw(st.integers(0, 3)),
            ))
        elif kind == "maintenance":
            shards = tuple(sorted(data.draw(st.sets(
                st.integers(0, 3), min_size=1, max_size=3
            ))))
            events.append(ScenarioEvent(
                at_ms=at, kind=kind, shards=shards,
                window_ms=data.draw(st.floats(1.0, 30.0)),
            ))
        else:
            s = data.draw(st.integers(0, 30))
            t = data.draw(st.integers(0, 30).filter(lambda v: v != s))
            events.append(ScenarioEvent(at_ms=at, kind="probe", s=s, t=t))
    trace = ScenarioTrace(
        name="prop",
        graph_spec="grid:6x6",
        duration_ms=at + data.draw(st.floats(1.0, 100.0)),
        seed=data.draw(st.integers(0, 2**20)),
        base_rate_per_ms=data.draw(st.floats(0.01, 2.0)),
        events=tuple(events),
    )
    text = serialize_trace(trace)
    parsed = parse_trace(text)
    assert parsed == trace
    # byte-identical: serializing the parse reproduces the file exactly
    assert serialize_trace(parsed) == text


def _expect_error(text: str, fragment: str, line: int | None = None):
    with pytest.raises(ScenarioError) as err:
        parse_trace(text)
    assert fragment in str(err.value), str(err.value)
    if line is not None:
        assert err.value.line == line
    return err.value


class TestParserStrictness:
    def test_empty_file(self):
        _expect_error("", "empty scenario file")

    def test_bad_magic(self):
        _expect_error("not-a-scenario v1\n", "bad magic", line=1)

    def test_unsupported_version(self):
        _expect_error(
            f"repro-scenario v{SCHEMA_VERSION + 1}\n",
            "unsupported schema version",
            line=1,
        )

    def test_unknown_directive(self):
        text = "repro-scenario v1\nname x\ngraph path:4\nbogus 3\n"
        _expect_error(text, "unknown directive 'bogus'", line=4)

    def test_duplicate_directive(self):
        text = "repro-scenario v1\nname x\nname y\n"
        _expect_error(text, "duplicate directive 'name'", line=3)

    def test_header_after_event_rejected(self):
        text = (
            "repro-scenario v1\nname x\ngraph path:4\nduration_ms 100\n"
            "@10 shard_down shard=0\nseed 3\n"
        )
        _expect_error(text, "after the first event", line=6)

    def test_unknown_event_kind(self):
        text = (
            "repro-scenario v1\nname x\ngraph path:4\nduration_ms 100\n"
            "@10 meteor_strike shard=0\n"
        )
        _expect_error(text, "unknown event kind 'meteor_strike'", line=5)

    def test_unknown_event_field_names_field(self):
        text = (
            "repro-scenario v1\nname x\ngraph path:4\nduration_ms 100\n"
            "@10 shard_down shard=0 color=red\n"
        )
        err = _expect_error(text, "does not take field 'color'", line=5)
        assert err.field == "color"

    def test_missing_required_field(self):
        text = (
            "repro-scenario v1\nname x\ngraph path:4\nduration_ms 100\n"
            "@10 ball_outage center=3\n"
        )
        err = _expect_error(text, "needs field 'radius'", line=5)
        assert err.field == "radius"

    def test_unparseable_value_names_line_and_field(self):
        text = (
            "repro-scenario v1\nname x\ngraph path:4\nduration_ms 100\n"
            "@10 shard_down shard=two\n"
        )
        err = _expect_error(text, "cannot parse 'two' as int", line=5)
        assert err.field == "shard"

    def test_out_of_order_events(self):
        text = (
            "repro-scenario v1\nname x\ngraph path:4\nduration_ms 100\n"
            "@50 shard_down shard=0\n@10 shard_recover shard=0\n"
            "crc 00000000\n"
        )
        _expect_error(text, "out of order")

    def test_event_past_duration(self):
        text = (
            "repro-scenario v1\nname x\ngraph path:4\nduration_ms 100\n"
            "@150 shard_down shard=0\ncrc 00000000\n"
        )
        _expect_error(text, "past the scenario duration")

    def test_unpaired_rollout(self):
        text = (
            "repro-scenario v1\nname x\ngraph path:4\nduration_ms 100\n"
            "@10 rollout_begin edge=0-1\ncrc 00000000\n"
        )
        _expect_error(text, "without a matching rollout_commit")

    def test_missing_crc_footer(self):
        trace = rich_trace()
        body = serialize_trace(trace).rsplit("crc ", 1)[0]
        _expect_error(body, "missing crc footer")

    def test_crc_mismatch_fails_loudly(self):
        text = serialize_trace(rich_trace())
        edited = text.replace("seed 11", "seed 12")
        _expect_error(edited, "crc mismatch")

    def test_content_after_crc_rejected(self):
        text = serialize_trace(rich_trace()) + "@490 shard_down shard=0\n"
        _expect_error(text, "content after the crc footer")

    def test_missing_name(self):
        text = "repro-scenario v1\ngraph path:4\nduration_ms 100\ncrc 00000000\n"
        _expect_error(text, "missing required directive 'name'")

    def test_missing_duration(self):
        text = "repro-scenario v1\nname x\ngraph path:4\ncrc 00000000\n"
        _expect_error(text, "missing required directive 'duration_ms'")


class TestValidation:
    def test_unknown_kind_rejected_at_construction(self):
        with pytest.raises(ScenarioError, match="unknown event kind"):
            ScenarioEvent(at_ms=0.0, kind="asteroid")

    def test_event_field_mismatch(self):
        with pytest.raises(ScenarioError, match="does not take field"):
            ScenarioEvent(at_ms=0.0, kind="shard_down", shard=0,
                          multiplier=2.0)

    def test_probe_endpoint_in_fault_set(self):
        with pytest.raises(ScenarioError, match="inside its own"):
            ScenarioEvent(at_ms=0.0, kind="probe", s=1, t=2, faults=(1,))

    def test_negative_duration(self):
        with pytest.raises(ScenarioError, match="must be positive"):
            ScenarioEvent(at_ms=0.0, kind="flash_crowd", multiplier=2.0,
                          duration_ms=-1.0)

    def test_tenant_validation(self):
        with pytest.raises(ScenarioError, match="weight must be positive"):
            TraceTenant("x", weight=0.0)
        with pytest.raises(ScenarioError, match="fault_rate"):
            TraceTenant("x", fault_rate=1.5)

    def test_trace_replication_bound(self):
        with pytest.raises(ScenarioError, match="replication"):
            ScenarioTrace(name="x", graph_spec="path:4", duration_ms=10.0,
                          num_shards=2, replication=3)

    def test_event_kinds_frozen(self):
        assert V1_KINDS == frozenset({
            "ball_outage", "outage", "flash_crowd", "maintenance",
            "shard_down", "shard_recover", "shard_crash", "shard_restart",
            "rollout_begin", "rollout_commit", "rollout_abort", "probe",
        })
        assert EVENT_KINDS == V1_KINDS | {
            "shard_slow", "shard_flaky", "shard_corrupt", "rollout_crash",
            "query", "advance", "fail_vertex", "recover_vertex",
            "fail_edge", "recover_edge", "partition", "heal_partition",
            "propagate", "send",
        }


def _shaped(*events, **header) -> ScenarioTrace:
    """A trace with open-loop traffic on grid:8x8, 100 ms long."""
    return ScenarioTrace(name="shaped", graph_spec="grid:8x8",
                         duration_ms=100.0, events=events, **header)


def _window(kind: str, at_ms: float = 0.0, **fields) -> ScenarioTrace:
    """A shaped trace with one ``kind`` window (sensible defaults)."""
    defaults = dict(
        ball_outage=dict(center=0, radius=1, duration_ms=10.0),
        outage=dict(vertices=(3, 4), duration_ms=10.0),
        flash_crowd=dict(multiplier=2.0, duration_ms=10.0),
    )[kind]
    defaults.update(fields)
    return _shaped(ScenarioEvent(at_ms=at_ms, kind=kind, **defaults))


def _burst(**fields) -> ScenarioTrace:
    values = dict(at_ms=0.0, duration_ms=10.0, radius=1, fault_rate=0.5)
    values.update(fields)
    return _shaped(burst=TraceBurst(**values))


#: every rule on the shape of open-loop traffic, as ``case -> (make,
#: message)``: ``make()`` must raise a ScenarioError matching
#: ``message``.  A case is named after the traffic-type check it
#: replaces (``tests/test_traffic.py`` runs them under those names);
#: ``-header`` / ``-row`` split a fault-window rule between the
#: ``burst`` header and the outage rows.  A trace without tenant rows
#: gets the default tenant (``test_defaults_resolve_canonically``).
TRAFFIC_RULES = {
    "rate_must_be_positive": (
        lambda: _shaped(base_rate_per_ms=-1.0), r"rate must be >= 0"),
    "duration_must_be_positive": (
        lambda: replace(_shaped(), duration_ms=0.0),
        r"duration_ms must be positive"),
    "config_zipf_exponent_floor": (
        lambda: _shaped(zipf_exponent=-0.5), r"zipf must be >= 0"),
    "tenant_name_required": (
        lambda: TraceTenant(""), r"bad tenant name"),
    "tenant_weights_must_be_positive": (
        lambda: TraceTenant("b", weight=0.0),
        r"tenant weight must be positive"),
    "tenant_fault_rate_bounds-high": (
        lambda: TraceTenant("a", fault_rate=1.5),
        r"tenant fault_rate must be in \[0, 1\]"),
    "tenant_fault_rate_bounds-low": (
        lambda: TraceTenant("a", fault_rate=-0.1),
        r"tenant fault_rate must be in \[0, 1\]"),
    "tenant_max_faults_floor": (
        lambda: TraceTenant("a", max_faults=0),
        r"tenant max_faults must be >= 1"),
    "tenant_needs_users": (
        lambda: TraceTenant("a", num_users=0), r"at least one user"),
    "tenant_deadline_must_be_positive": (
        lambda: TraceTenant("a", deadline_ms=0.0),
        r"tenant deadline_ms must be positive"),
    "phase_duration_must_be_positive": (
        lambda: _window("flash_crowd", duration_ms=0.0),
        r"flash_crowd duration_ms must be positive"),
    "phase_multiplier_must_be_positive": (
        lambda: _window("flash_crowd", multiplier=-1.0),
        r"flash_crowd multiplier must be positive"),
    "burst_start-header": (
        lambda: _burst(at_ms=-1.0), r"burst at_ms must be in \[0, inf\)"),
    "burst_start-row": (
        lambda: _window("ball_outage", at_ms=-1.0),
        r"event time must be >= 0"),
    "burst_duration-header": (
        lambda: _burst(duration_ms=0.0),
        r"burst duration_ms must be in \(0, inf\)"),
    "burst_duration-row": (
        lambda: _window("outage", duration_ms=0.0),
        r"outage duration_ms must be positive"),
    "burst_rate_bounds-header": (
        lambda: _burst(fault_rate=2.0),
        r"burst fault_rate must be in \[0, 1\]"),
    "burst_rate_bounds-row": (
        lambda: _window("ball_outage", fault_rate=2.0),
        r"ball_outage fault_rate must be in \[0, 1\]"),
    "burst_radius_floor-header": (
        lambda: _burst(radius=-1), r"burst radius must be in \[0, inf\)"),
    "burst_radius_floor-row": (
        lambda: _window("ball_outage", radius=-1),
        r"ball_outage radius must be >= 0"),
    "burst_vertices_must_be_distinct": (
        lambda: _window("outage", vertices=(3, 3)),
        r"outage vertices must be distinct"),
    "burst_max_faults_floor-ball": (
        lambda: _window("ball_outage", max_faults=0),
        r"ball_outage max_faults must be >= 1"),
    "burst_max_faults_floor-outage": (
        lambda: _window("outage", max_faults=0),
        r"outage max_faults must be >= 1"),
    "burst_vertices_inside_the_graph": (
        lambda: compile_trace(_window("outage", vertices=(3, 64))),
        r"vertex 64 outside the graph's range \[0, 64\)"),
}


@pytest.mark.parametrize("case", list(TRAFFIC_RULES))
def test_traffic_shape_rules(case):
    make, message = TRAFFIC_RULES[case]
    with pytest.raises(ScenarioError, match=message):
        make()


def rich_v2_trace() -> ScenarioTrace:
    """Every v2 feature at once: header values, new kinds, scripted rows.

    :func:`timed_v2_trace` carries the new kinds as timed rows instead,
    since one trace's rows are all timed or all scripted.
    """
    return ScenarioTrace(
        name="rich-v2",
        graph_spec="grid:6x6",
        duration_ms=500.0,
        seed=3,
        base_rate_per_ms=0.25,
        tenants=(
            TraceTenant("default", quota_rate=1.0, quota_burst=10.0),
            TraceTenant("batch"),
        ),
        events=(
            ScenarioEvent(None, "shard_slow", shard=1, latency_ms=40.0),
            ScenarioEvent(None, "query", s=0, t=35, faults=(14,),
                          edge_faults=((0, 1),)),
            ScenarioEvent(None, "shard_flaky", shard=2, probability=0.3),
            ScenarioEvent(None, "advance", duration_ms=60.0),
            ScenarioEvent(None, "shard_corrupt", shard=3, fraction=0.25),
            ScenarioEvent(None, "rollout_crash", edge=(0, 1)),
            ScenarioEvent(None, "query", s=5, t=5, exact=True),
        ),
        cache_capacity=None,
        hedging=False,
        service_deadline_ms=150.0,
        gateway=TraceGateway(tenant_queue=8, quota_rate=2.0,
                             quota_burst=40.0),
        burst=TraceBurst(at_ms=600.0, duration_ms=50.0, radius=1,
                         fault_rate=0.5),
        slo=TraceSLO(p99_ms=400.0, shed_rate=0.9, goodput=0.05,
                     fairness=3.0, service_fraction=0.5),
    )


def timed_v2_trace() -> ScenarioTrace:
    """The new v2 kinds as timed rows, in an otherwise v1 trace."""
    return ScenarioTrace(
        name="timed-v2", graph_spec="grid:6x6", duration_ms=500.0, seed=3,
        events=(
            ScenarioEvent(at_ms=50.0, kind="shard_slow", shard=1,
                          latency_ms=40.0),
            ScenarioEvent(at_ms=60.0, kind="shard_flaky", shard=2,
                          probability=0.3),
            ScenarioEvent(at_ms=70.0, kind="shard_corrupt", shard=3,
                          fraction=0.25),
            ScenarioEvent(at_ms=100.0, kind="rollout_crash", edge=(0, 1)),
        ),
    )


class TestVersion2:
    def test_v2_round_trip_is_byte_identical(self):
        text = serialize_trace(rich_v2_trace())
        assert text.startswith("repro-scenario v2\n")
        assert "\n> query s=5 t=5 exact=1\n" in text
        assert "\ncache none\nhedging off\nservice_deadline_ms 150\n" in text
        parsed = parse_trace(text)
        assert parsed == rich_v2_trace()
        assert serialize_trace(parsed) == text

    def test_timed_v2_kinds_round_trip(self):
        text = serialize_trace(timed_v2_trace())
        assert text.startswith("repro-scenario v2\n")
        assert "\n@100 rollout_crash edge=0-1\n" in text
        assert parse_trace(text) == timed_v2_trace()
        assert serialize_trace(parse_trace(text)) == text

    def test_traces_without_v2_features_stay_v1(self):
        assert serialize_trace(rich_trace()).startswith("repro-scenario v1\n")
        plain = replace(rich_v2_trace(), events=(), tenants=(),
                        cache_capacity=256, hedging=True,
                        service_deadline_ms=120.0, gateway=TraceGateway(),
                        burst=None, slo=None)
        assert trace_version(plain) == 1
        assert trace_version(replace(plain, base_rate_per_ms=0.0)) == 2

    def test_generated_traces_round_trip(self):
        for trace in (
            random_shard_plan("grid:4x4", seed=1, num_events=20),
            traffic_trace(seed=0, duration_ms=1000.0),
        ):
            text = serialize_trace(trace)
            assert text.startswith("repro-scenario v2\n")
            assert parse_trace(text) == trace

    def test_declared_version_must_match_the_content(self):
        text = serialize_trace(rich_trace())
        _expect_error(text.replace("v1", "v2", 1), "declares v2")
        v2 = serialize_trace(rich_v2_trace())
        _expect_error(v2.replace("v2", "v1", 1), "declares v1")

    def test_scripted_and_timed_kinds_stay_apart(self):
        with pytest.raises(ScenarioError, match="scripted row"):
            ScenarioEvent(at_ms=10.0, kind="query", s=0, t=1)
        with pytest.raises(ScenarioError, match="needs a timestamp"):
            ScenarioEvent(None, "probe", s=0, t=1)
        with pytest.raises(ScenarioError, match="needs a timestamp"):
            ScenarioEvent(None, "flash_crowd", multiplier=2.0,
                          duration_ms=10.0)

    def test_v2_values_are_range_checked(self):
        with pytest.raises(ScenarioError, match="fraction"):
            ScenarioEvent(None, "shard_corrupt", shard=0, fraction=0.0)
        with pytest.raises(ScenarioError, match="latency_ms"):
            ScenarioEvent(None, "shard_slow", shard=0, latency_ms=0.0)
        with pytest.raises(ScenarioError, match="fairness"):
            replace(rich_v2_trace(), slo=replace(rich_v2_trace().slo,
                                                 fairness=0.5))
        with pytest.raises(ScenarioError, match="go together"):
            TraceTenant("x", quota_rate=1.0)
        with pytest.raises(ScenarioError, match="already staged"):
            ScenarioTrace(
                name="x", graph_spec="path:4", duration_ms=10.0,
                events=(
                    ScenarioEvent(None, "rollout_begin", edge=(0, 1)),
                    ScenarioEvent(None, "rollout_crash", edge=(1, 2)),
                    ScenarioEvent(None, "rollout_commit"),
                ),
            )

    def test_timed_and_scripted_rows_do_not_mix(self):
        # a timed rollout_begin and a scripted commit would interleave
        # at replay: the commit would run first, with nothing staged
        with pytest.raises(ScenarioError, match="never both"):
            ScenarioTrace(
                name="x", graph_spec="path:4", duration_ms=100.0,
                events=(
                    ScenarioEvent(at_ms=50.0, kind="rollout_begin",
                                  edge=(0, 1)),
                    ScenarioEvent(None, "rollout_commit"),
                ),
            )
        scripted = serialize_trace(rich_v2_trace())
        _expect_error(
            scripted.replace("> advance duration_ms=60",
                             "@60 shard_down shard=0"),
            "never both",
        )

    def test_scripted_rows_parse_and_name_their_line(self):
        text = (
            "repro-scenario v2\nname x\ngraph path:4\nduration_ms 100\n"
            "rate 0\n> query s=0 t=3\n> advance\ncrc 00000000\n"
        )
        err = _expect_error(text, "advance needs field 'duration_ms'", line=7)
        assert err.field == "duration_ms"


class TestDegradationReasonFrozen:
    """Golden metrics and scenario reports embed these strings verbatim.

    A rename is a silent wire-format break — this test makes it loud.
    """

    def test_values_exhaustive(self):
        assert {member.value for member in DegradationReason} == {
            "endpoint_unavailable",
            "fault_labels_unavailable",
            "shed_overload",
            "quota_exceeded",
            "queue_deadline",
        }

    def test_members_exhaustive(self):
        assert {member.name for member in DegradationReason} == {
            "ENDPOINT_UNAVAILABLE",
            "FAULT_LABELS_UNAVAILABLE",
            "SHED_OVERLOAD",
            "QUOTA_EXCEEDED",
            "QUEUE_DEADLINE",
        }

    def test_shed_reasons_cover_the_shed_members(self):
        assert SHED_REASONS == frozenset({
            DegradationReason.SHED_OVERLOAD,
            DegradationReason.QUOTA_EXCEEDED,
            DegradationReason.QUEUE_DEADLINE,
        })

    def test_str_comparison_still_works(self):
        assert DegradationReason.SHED_OVERLOAD == "shed_overload"
