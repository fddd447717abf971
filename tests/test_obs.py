"""Property tests of the observability layer's determinism contracts.

The registry promises *bit-determinism*: histogram merging is
associative and commutative exactly (integer microunit sums, never
float accumulation), counter aggregation is order-independent, and the
exporters render byte-identical output for identical workloads in any
insertion order.  Hypothesis hunts for counterexamples; the misuse
tests pin the fail-loudly contract.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ObservabilityError
from repro.obs import (
    Counter,
    Histogram,
    Registry,
    Tracer,
    canonical_labels,
    format_micros,
    render_metrics_json,
    render_prometheus,
)

BOUNDS = (0.5, 1.0, 5.0, 25.0, 100.0)

samples = st.lists(
    st.floats(
        min_value=0.0, max_value=500.0,
        allow_nan=False, allow_infinity=False,
    ),
    max_size=30,
)


def make_hist(values) -> Histogram:
    hist = Histogram("repro_test_ms", (), BOUNDS)
    for value in values:
        hist.observe(value)
    return hist


def hist_fields(hist: Histogram):
    return (hist.bucket_counts, hist.count, hist.sum_micros)


class TestHistogramMerge:
    @settings(max_examples=60, deadline=None)
    @given(samples, samples)
    def test_commutative(self, xs, ys):
        a, b = make_hist(xs), make_hist(ys)
        assert hist_fields(a.merge(b)) == hist_fields(b.merge(a))

    @settings(max_examples=60, deadline=None)
    @given(samples, samples, samples)
    def test_associative(self, xs, ys, zs):
        a, b, c = make_hist(xs), make_hist(ys), make_hist(zs)
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert hist_fields(left) == hist_fields(right)

    @settings(max_examples=40, deadline=None)
    @given(samples, samples)
    def test_merge_equals_combined_observation(self, xs, ys):
        merged = make_hist(xs).merge(make_hist(ys))
        combined = make_hist(list(xs) + list(ys))
        assert hist_fields(merged) == hist_fields(combined)

    def test_bucket_mismatch_rejected(self):
        a = Histogram("repro_test_ms", (), (1.0, 2.0))
        b = Histogram("repro_test_ms", (), (1.0, 3.0))
        with pytest.raises(ObservabilityError):
            a.merge(b)

    def test_bounds_must_increase_strictly(self):
        with pytest.raises(ObservabilityError):
            Histogram("repro_test_ms", (), (1.0, 1.0, 2.0))
        with pytest.raises(ObservabilityError):
            Histogram("repro_test_ms", (), ())


class TestCounterAggregation:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(0, 10**6), max_size=40),
        st.integers(0, 10**6),
    )
    def test_order_independent(self, increments, seed):
        shuffled = list(increments)
        random.Random(seed).shuffle(shuffled)
        a = Counter("repro_test_total", ())
        b = Counter("repro_test_total", ())
        for delta in increments:
            a.inc(delta)
        for delta in shuffled:
            b.inc(delta)
        assert a.value == b.value == sum(increments)

    def test_rejects_negative_float_and_bool(self):
        counter = Counter("repro_test_total", ())
        with pytest.raises(ObservabilityError):
            counter.inc(-1)
        with pytest.raises(ObservabilityError):
            counter.inc(1.5)  # type: ignore[arg-type]
        with pytest.raises(ObservabilityError):
            counter.inc(True)


# one seeded workload = a reproducible sequence of metric operations
def apply_workload(registry: Registry, seed: int, ops: int) -> None:
    rng = random.Random(seed)
    names = ["repro_a_total", "repro_b_total", "repro_c_ms", "repro_d"]
    for _ in range(ops):
        name = rng.choice(names)
        shard = rng.randrange(3)
        if name.endswith("_total"):
            registry.counter(name, shard=shard).inc(rng.randrange(5))
        elif name.endswith("_ms"):
            registry.histogram(
                name, buckets=BOUNDS, shard=shard
            ).observe(rng.uniform(0, 200))
        else:
            registry.gauge(name, shard=shard).set(rng.uniform(-5, 5))


class TestExporterDeterminism:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 120))
    def test_byte_identical_across_runs(self, seed, ops):
        one, two = Registry(), Registry()
        apply_workload(one, seed, ops)
        apply_workload(two, seed, ops)
        assert render_prometheus(one) == render_prometheus(two)
        assert render_metrics_json(one) == render_metrics_json(two)

    def test_insertion_order_irrelevant(self):
        one, two = Registry(), Registry()
        one.counter("repro_z_total", shard=1).inc(3)
        one.counter("repro_a_total").inc(2)
        one.counter("repro_z_total", shard=0).inc(1)
        two.counter("repro_a_total").inc(2)
        two.counter("repro_z_total", shard=0).inc(1)
        two.counter("repro_z_total", shard=1).inc(3)
        assert render_prometheus(one) == render_prometheus(two)

    def test_json_is_canonical(self):
        registry = Registry()
        apply_workload(registry, seed=7, ops=40)
        text = render_metrics_json(registry)
        assert text == json.dumps(
            json.loads(text), sort_keys=True, separators=(",", ":")
        )

    @settings(max_examples=60, deadline=None)
    @given(st.integers(-10**12, 10**12))
    def test_format_micros_exact(self, micros):
        rendered = format_micros(micros)
        # parse back with pure string arithmetic: the rendering must
        # round-trip to the same integer microunit count
        negative = rendered.startswith("-")
        body = rendered.lstrip("-")
        whole, _, frac = body.partition(".")
        assert len(frac) <= 6 and (not frac or frac[-1] != "0")
        value = int(whole) * 10**6 + int(frac.ljust(6, "0") or 0)
        assert (-value if negative else value) == micros


class TestRegistryContract:
    def test_type_conflicts_raise(self):
        registry = Registry()
        registry.counter("repro_x")
        with pytest.raises(ObservabilityError):
            registry.gauge("repro_x")
        with pytest.raises(ObservabilityError):
            registry.histogram("repro_x")

    def test_help_conflict_raises(self):
        registry = Registry()
        registry.counter("repro_x", "one thing")
        with pytest.raises(ObservabilityError):
            registry.counter("repro_x", "another thing")

    def test_bucket_layout_fixed_by_first_call(self):
        registry = Registry()
        registry.histogram("repro_h", buckets=(1.0, 2.0))
        registry.histogram("repro_h")  # no layout given: reuses the fixed one
        with pytest.raises(ObservabilityError):
            registry.histogram("repro_h", buckets=(1.0, 3.0))

    def test_bad_names_rejected(self):
        registry = Registry()
        with pytest.raises(ObservabilityError):
            registry.counter("bad name")
        with pytest.raises(ObservabilityError):
            registry.counter("repro_ok", **{"0bad": "x"})
        with pytest.raises(ObservabilityError):
            canonical_labels({"not a label": 1})

    def test_get_or_create_returns_same_instrument(self):
        registry = Registry()
        a = registry.counter("repro_x", shard=0)
        b = registry.counter("repro_x", shard=0)
        assert a is b
        a.inc(5)
        assert registry.get_counter_value("repro_x", shard=0) == 5
        assert registry.total("repro_x") == 5


class TestTracer:
    def test_span_tree_and_dense_ids(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                inner.add("ops", 3)
                inner.add("ops", 2)
        assert [s.span_id for s in tracer.spans] == [1, 2]
        assert inner.parent_id == outer.span_id
        assert inner.attrs["ops"] == 5
        assert tracer.attr_total("inner", "ops") == 5

    def test_end_of_non_innermost_raises(self):
        tracer = Tracer()
        outer = tracer.start("outer")
        tracer.start("inner")
        with pytest.raises(ObservabilityError):
            tracer.end(outer)

    def test_no_clock_means_no_timestamps(self):
        tracer = Tracer()
        with tracer.span("a") as span:
            pass
        assert span.start_ms is None and span.end_ms is None
        assert "start_ms" not in span.to_dict()

    def test_virtual_clock_stamps(self):
        from repro.service.clock import VirtualClock

        clock = VirtualClock()
        tracer = Tracer(clock=clock)
        with tracer.span("a") as span:
            clock.advance(7.5)
        assert span.start_ms == 0.0 and span.end_ms == 7.5

    def test_add_on_string_attr_raises(self):
        tracer = Tracer()
        span = tracer.start("a")
        span.set("status", "exact")
        with pytest.raises(ObservabilityError):
            span.add("status")


# -- documentation -----------------------------------------------------------


def test_every_degradation_reason_is_documented():
    from pathlib import Path

    from repro.service.frontend import DegradationReason

    doc = (
        Path(__file__).resolve().parents[1] / "docs" / "observability.md"
    ).read_text(encoding="utf-8")
    section = doc.split("## Degradation reasons", 1)[1].split("\n## ", 1)[0]
    missing = [
        reason.value
        for reason in DegradationReason
        if f"`{reason.value}`" not in section
    ]
    assert missing == []


def test_every_metric_in_src_is_catalogued():
    """The catalogue and the ``"repro_…"`` literals under ``src/`` agree.

    Both ways: every literal has a catalogue row, and every catalogued
    name is still created somewhere in ``src/``.
    """
    import re
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    doc = (root / "docs" / "observability.md").read_text(encoding="utf-8")
    section = doc.split("## Metric catalogue", 1)[1].split("\n## ", 1)[0]
    catalogued = set(re.findall(r"`(repro_[a-z0-9_]+)`", section))
    in_src = set()
    for path in sorted((root / "src").rglob("*.py")):
        in_src.update(re.findall(r"\"(repro_[a-z0-9_]+)\"",
                                 path.read_text(encoding="utf-8")))
    assert len(in_src) > 40
    assert sorted(in_src - catalogued) == []
    assert sorted(catalogued - in_src) == []
