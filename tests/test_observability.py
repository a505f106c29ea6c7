"""Observability tests: alarm hysteresis, SLA evaluation, autoscaling.

The property tests pin the two contracts the subsystem is built on: the
hysteresis state machine never chatters inside the (clear, warn) band,
and SLA evaluation is a pure, deterministic function of the KPIs.  The
integration tests close the loop — alarms raised from real platform
events drive the autoscaler, deterministically and byte-identical to
golden digests of the loop.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.monitor import Monitor
from repro.observability import (
    AlarmEngine,
    AlarmRule,
    AutoscaleSpec,
    SLASpec,
    evaluate_slas,
    known_metrics,
    metric_value,
    signal_exists,
)
from repro.scenarios import (
    ArrivalSpec,
    DispatchSpec,
    GradeSpec,
    ScenarioRunner,
    ScenarioSpec,
    TenantSpec,
    run_scenario,
)
from repro.scenarios.kpis import StatSummary, TenantKPIs
from repro.simkernel import Simulator


def make_engine(*rules, **kwargs):
    monitor = Monitor(Simulator())
    return AlarmEngine(monitor, rules=rules, **kwargs), monitor


# ----------------------------------------------------------------------
# rule validation and the state machine
# ----------------------------------------------------------------------
class TestAlarmRule:
    def test_validation(self):
        with pytest.raises(ValueError):
            AlarmRule(name="", signal="queue_depth", warn=1.0)
        with pytest.raises(ValueError):
            AlarmRule(name="r", signal="", warn=1.0)
        with pytest.raises(ValueError):
            AlarmRule(name="r", signal="queue_depth", warn=1.0, direction="sideways")
        with pytest.raises(ValueError):  # critical less severe than warn
            AlarmRule(name="r", signal="queue_depth", warn=5.0, critical=3.0)
        with pytest.raises(ValueError):  # clear on the unhealthy side
            AlarmRule(name="r", signal="queue_depth", warn=5.0, clear=7.0)
        with pytest.raises(ValueError):
            AlarmRule(name="r", signal="queue_depth", warn=1.0, window_s=0.0)
        # "below" direction mirrors the severity ordering.
        AlarmRule(name="r", signal="round_updates", warn=5.0, critical=2.0,
                  clear=8.0, direction="below")
        with pytest.raises(ValueError):
            AlarmRule(name="r", signal="round_updates", warn=5.0, critical=9.0,
                      direction="below")

    def test_target_state_above(self):
        rule = AlarmRule(name="r", signal="queue_depth", warn=5.0, critical=10.0, clear=2.0)
        assert rule.target_state(12.0) == "critical"
        assert rule.target_state(10.0) == "critical"
        assert rule.target_state(7.0) == "warning"
        assert rule.target_state(5.0) == "warning"
        assert rule.target_state(3.0) is None  # hold inside the band
        assert rule.target_state(2.0) == "ok"
        assert rule.target_state(0.0) == "ok"

    def test_target_state_below(self):
        rule = AlarmRule(name="r", signal="round_updates", warn=5.0, critical=2.0,
                         clear=8.0, direction="below")
        assert rule.target_state(1.0) == "critical"
        assert rule.target_state(4.0) == "warning"
        assert rule.target_state(6.0) is None
        assert rule.target_state(9.0) == "ok"

    def test_round_trip(self):
        rule = AlarmRule(name="r", signal="queue_wait_p95", warn=150.0,
                         critical=300.0, clear=100.0, min_hold_s=30.0, tenant="t")
        assert AlarmRule.from_dict(rule.to_dict()) == rule

    def test_signal_exists(self):
        assert signal_exists("queue_depth")
        assert signal_exists("queue_wait_p95")
        assert signal_exists("dropout_loss_rate_mean")
        assert not signal_exists("vibes")
        assert not signal_exists("vibes_p95")


class TestAlarmEngine:
    def test_duplicate_rule_rejected(self):
        engine, _ = make_engine(AlarmRule(name="dup", signal="queue_depth", warn=1.0))
        with pytest.raises(ValueError, match="duplicate"):
            engine.add_rule(AlarmRule(name="dup", signal="queue_depth", warn=9.0))

    def test_gauges_follow_task_lifecycle(self):
        depth = AlarmRule(name="qd", signal="queue_depth", warn=99.0)
        running = AlarmRule(name="run", signal="running_tasks", warn=99.0)
        engine, monitor = make_engine(depth, running)
        monitor.log("task_submitted", task_id="a")
        monitor.log("task_submitted", task_id="b")
        assert engine.value_of(depth) == 2.0
        assert engine.value_of(running) == 0.0
        monitor.log("task_scheduled", task_id="a")
        assert engine.value_of(depth) == 1.0
        assert engine.value_of(running) == 1.0
        monitor.log("task_scheduled", task_id="b")
        monitor.log("task_completed", task_id="a")
        monitor.log("task_failed", task_id="b")
        assert engine.value_of(depth) == 0.0
        assert engine.value_of(running) == 0.0

    def test_raise_and_clear_events(self):
        rule = AlarmRule(name="qd", signal="queue_depth", warn=2.0, clear=0.0)
        engine, monitor = make_engine(rule)
        monitor.log("task_submitted", task_id="a")
        monitor.log("task_submitted", task_id="b")  # depth 2 -> warning
        assert engine.state_of("qd") == "warning"
        assert engine.active_alarms() == {"qd": "warning"}
        raised = monitor.of_kind("alarm_raised")
        assert len(raised) == 1
        assert raised[0].fields["alarm"] == "qd"
        assert raised[0].fields["severity"] == "warning"
        monitor.log("task_scheduled", task_id="a")  # depth 1: in band, holds
        assert engine.state_of("qd") == "warning"
        monitor.log("task_scheduled", task_id="b")  # depth 0 <= clear
        assert engine.state_of("qd") == "ok"
        cleared = monitor.of_kind("alarm_cleared")
        assert len(cleared) == 1 and cleared[0].fields["previous"] == "warning"
        assert engine.summary()["qd"] == {"raised": 1, "cleared": 1, "state": "ok"}

    def test_queue_wait_series_feeds_percentile_rules(self):
        rule = AlarmRule(name="wait", signal="queue_wait_p95", warn=100.0)
        engine, monitor = make_engine(rule)
        sim = monitor.sim
        monitor.log("task_submitted", task_id="a")
        sim.schedule(150.0, lambda: monitor.log("task_scheduled", task_id="a"))
        sim.run()
        assert engine.value_of(rule) == pytest.approx(150.0)
        assert engine.state_of("wait") == "warning"

    def test_round_aggregated_feeds_dropout_loss(self):
        rule = AlarmRule(name="loss", signal="dropout_loss_rate", warn=0.2)
        engine, monitor = make_engine(rule)
        monitor.log("round_aggregated", task_id="t", round=0, n_updates=9, n_devices=10)
        assert engine.state_of("loss") == "ok"
        monitor.log("round_aggregated", task_id="t", round=1, n_updates=5, n_devices=10)
        # windowed mean of [0.1, 0.5] = 0.3 >= 0.2
        assert engine.state_of("loss") == "warning"

    def test_min_hold_defers_transitions(self):
        rule = AlarmRule(name="qd", signal="queue_depth", warn=1.0, min_hold_s=10.0)
        engine, monitor = make_engine(rule)
        sim = monitor.sim
        monitor.log("task_submitted", task_id="a")  # breach at t=0
        assert engine.state_of("qd") == "ok"  # held, not yet raised
        sim.schedule(5.0, lambda: monitor.log("task_scheduled", task_id="a"))  # heals
        sim.run()
        # The breach never held for 10s: no raise at all.
        assert engine.state_of("qd") == "ok"
        assert len(monitor.of_kind("alarm_raised")) == 0

    def test_min_hold_confirms_sustained_breach(self):
        rule = AlarmRule(name="qd", signal="queue_depth", warn=1.0, min_hold_s=10.0)
        engine, monitor = make_engine(rule)
        sim = monitor.sim
        monitor.log("task_submitted", task_id="a")
        sim.run()  # the scheduled confirmation at t=10 fires
        assert sim.now == pytest.approx(10.0)
        assert engine.state_of("qd") == "warning"

    def test_tenant_scoped_rules(self):
        scoped = AlarmRule(name="t1-qd", signal="queue_depth", warn=1.0, tenant="t1")
        glob = AlarmRule(name="all-qd", signal="queue_depth", warn=2.0)
        engine, monitor = make_engine(
            scoped, glob, scope_of=lambda task_id: task_id.split(".")[0]
        )
        monitor.log("task_submitted", task_id="t2.0001")
        assert engine.state_of("t1-qd") == "ok"  # other tenant's queue
        monitor.log("task_submitted", task_id="t1.0001")
        assert engine.state_of("t1-qd") == "warning"
        assert engine.state_of("all-qd") == "warning"  # global sees both

    def test_ingest_sample_custom_signal(self):
        rule = AlarmRule(name="temp", signal="gpu_temp_max", warn=90.0)
        engine, monitor = make_engine(rule)
        engine.ingest_sample("gpu_temp", 85.0)
        assert engine.state_of("temp") == "ok"
        engine.ingest_sample("gpu_temp", 95.0)
        assert engine.state_of("temp") == "warning"


# ----------------------------------------------------------------------
# property: no chatter inside the hysteresis band
# ----------------------------------------------------------------------
class TestHysteresisProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        clear=st.floats(min_value=-100, max_value=100, allow_nan=False),
        band=st.floats(min_value=0.1, max_value=50),
        values=st.lists(
            st.floats(min_value=-200, max_value=300, allow_nan=False),
            min_size=1, max_size=40,
        ),
    )
    def test_no_transition_from_inside_the_band(self, clear, band, values):
        """Values strictly inside (clear, warn) never change the state."""
        warn = clear + band
        rule = AlarmRule(name="p", signal="sig_max", warn=warn, clear=clear)
        engine, monitor = make_engine(rule)
        state = "ok"
        for value in values:
            before = len(monitor.of_kind("alarm_raised")) + len(
                monitor.of_kind("alarm_cleared")
            )
            engine.ingest_sample("sig", value)
            after = len(monitor.of_kind("alarm_raised")) + len(
                monitor.of_kind("alarm_cleared")
            )
            if clear < value < warn:
                # In the band: no events, no state change — ever.
                assert after == before
                assert engine.state_of("p") == state
            state = engine.state_of("p")

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=-200, max_value=300, allow_nan=False),
            min_size=1, max_size=40,
        ),
    )
    def test_event_log_matches_state_transitions(self, values):
        """raised/cleared counts always equal the number of transitions."""
        rule = AlarmRule(name="p", signal="sig_max", warn=10.0, critical=20.0, clear=0.0)
        engine, monitor = make_engine(rule)
        transitions = 0
        state = "ok"
        for value in values:
            engine.ingest_sample("sig", value)
            new_state = engine.state_of("p")
            if new_state != state:
                transitions += 1
                state = new_state
        logged = len(monitor.of_kind("alarm_raised")) + len(
            monitor.of_kind("alarm_cleared")
        )
        assert logged == transitions
        summary = engine.summary()["p"]
        assert summary["raised"] + summary["cleared"] == transitions


# ----------------------------------------------------------------------
# SLA specs and evaluation
# ----------------------------------------------------------------------
def kpis_with(**overrides):
    base = TenantKPIs(tenant="t", submitted=4, completed=4)
    for key, value in overrides.items():
        setattr(base, key, value)
    return base


class TestSLA:
    def test_validation(self):
        with pytest.raises(ValueError):
            SLASpec(metric="made_up_metric", limit=1.0)
        with pytest.raises(ValueError):
            SLASpec(metric="queue_wait_p95", limit=1.0, direction="approx")
        assert "queue_wait_p95" in known_metrics()

    def test_round_trip(self):
        sla = SLASpec(metric="completion_rate", limit=0.95, direction="min", tenant="t")
        assert SLASpec.from_dict(sla.to_dict()) == sla

    def test_holds_directions(self):
        assert SLASpec(metric="queue_wait_p95", limit=100.0).holds(50.0)
        assert not SLASpec(metric="queue_wait_p95", limit=100.0).holds(150.0)
        low = SLASpec(metric="completion_rate", limit=0.9, direction="min")
        assert low.holds(0.95) and not low.holds(0.5)
        assert low.holds(None)  # no data = no violation

    def test_metric_value_resolution(self):
        kpis = kpis_with(
            queue_wait=StatSummary.of([10.0, 20.0, 30.0]),
            updates_expected=100, dropout_lost=5, failed=1,
            final_accuracy=0.9,
        )
        assert metric_value(kpis, "queue_wait_mean") == pytest.approx(20.0)
        assert metric_value(kpis, "queue_wait_max") == pytest.approx(30.0)
        assert metric_value(kpis, "dropout_loss_rate") == pytest.approx(0.05)
        assert metric_value(kpis, "completion_rate") == pytest.approx(1.0)
        assert metric_value(kpis, "failed_tasks") == 1.0
        assert metric_value(kpis, "final_accuracy") == pytest.approx(0.9)
        empty = kpis_with()
        assert metric_value(empty, "queue_wait_p95") is None  # no samples
        assert metric_value(empty, "queue_depth") is None  # live-only

    def test_evaluate_expands_wildcard_tenant(self):
        tenants = {
            "a": kpis_with(queue_wait=StatSummary.of([10.0])),
            "b": kpis_with(queue_wait=StatSummary.of([500.0])),
        }
        rows = evaluate_slas([SLASpec(metric="queue_wait_p95", limit=100.0)], tenants)
        assert [(r["tenant"], r["ok"]) for r in rows] == [("a", True), ("b", False)]

    def test_live_rule_compilation(self):
        live = SLASpec(metric="queue_wait_p95", limit=150.0)
        rule = live.live_rule()
        assert rule is not None
        assert rule.signal == "queue_wait_p95" and rule.warn == 150.0
        assert rule.clear_level == rule.warn  # pure threshold, no hysteresis
        # Metrics without a streaming counterpart never arm live watches.
        assert SLASpec(metric="makespan_p95", limit=10.0).live_rule() is None
        assert SLASpec(metric="queue_wait_p95", limit=1.0, live=False).live_rule() is None

    @settings(max_examples=50, deadline=None)
    @given(
        waits=st.lists(
            st.floats(min_value=0, max_value=1000, allow_nan=False),
            min_size=0, max_size=20,
        ),
        limit=st.floats(min_value=0, max_value=1000, allow_nan=False),
    )
    def test_sla_verdict_matches_direct_comparison(self, waits, limit):
        """evaluate_slas is a pure function of the KPI values."""
        tenants = {"t": kpis_with(queue_wait=StatSummary.of(waits))}
        sla = SLASpec(metric="queue_wait_p95", limit=limit)
        rows = evaluate_slas([sla], tenants)
        assert len(rows) == 1
        row = rows[0]
        if not waits:
            assert row["value"] is None and row["ok"]
        else:
            assert row["value"] == pytest.approx(tenants["t"].queue_wait.p95)
            assert row["ok"] == (row["value"] <= limit)
        # Evaluation never mutates its inputs: a second pass is identical.
        assert evaluate_slas([sla], tenants) == rows


# ----------------------------------------------------------------------
# autoscaling: spec validation and the closed loop
# ----------------------------------------------------------------------
def autoscale_scenario(**overrides) -> ScenarioSpec:
    """An undersized cluster + burst that must trip the autoscaler."""
    defaults = {
        "name": "as-test",
        "seed": 0,
        "horizon_s": 900.0,
        "cluster_nodes": 1,  # 20 bundles
        "tenants": [
            TenantSpec(
                name="burst",
                grades=[GradeSpec(grade="High", n_devices=4, bundles=10)],
                arrival=ArrivalSpec(kind="trace", times=[10.0 + 2.0 * i for i in range(8)]),
                dispatch=DispatchSpec(kind="realtime", thresholds=[1], failure_prob=0.0),
            ),
        ],
        "alarms": [
            AlarmRule(name="pressure", signal="queue_depth", warn=3.0, clear=1.0,
                      min_hold_s=5.0),
        ],
        "autoscale": AutoscaleSpec(alarm="pressure", step=1, max_extra_nodes=3,
                                cooldown_s=30.0),
    }
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


class TestAutoscale:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            AutoscaleSpec(alarm="")
        with pytest.raises(ValueError):
            AutoscaleSpec(alarm="a", step=0)
        with pytest.raises(ValueError):
            AutoscaleSpec(alarm="a", max_extra_nodes=0)
        with pytest.raises(ValueError):
            AutoscaleSpec(alarm="a", cooldown_s=-1.0)
        spec = AutoscaleSpec(alarm="a", step=2)
        assert AutoscaleSpec.from_dict(spec.to_dict()) == spec

    def test_scenario_rejects_unknown_alarm_reference(self):
        with pytest.raises(ValueError, match="unknown alarm"):
            autoscale_scenario(autoscale=AutoscaleSpec(alarm="ghost"))

    def test_closed_loop_scales_up_and_back_down(self):
        runner = ScenarioRunner(autoscale_scenario())
        base_nodes = len(runner.platform.cluster.nodes)
        report = runner.run()
        assert report.alarms["pressure"]["raised"] >= 1
        assert report.alarms["pressure"]["state"] == "ok"  # cleared by the end
        assert report.autoscale["scale_ups"] >= 1
        assert report.autoscale["extra_nodes_left"] == 0
        assert len(runner.platform.cluster.nodes) == base_nodes  # drained
        assert report.alarm_events["autoscale_up"] == report.autoscale["scale_ups"]
        # The scale-up happened after the raise, before the clear.
        monitor = runner.platform.monitor
        raised_t = monitor.of_kind("alarm_raised")[0].time
        up_t = monitor.of_kind("autoscale_up")[0].time
        cleared_t = monitor.of_kind("alarm_cleared")[-1].time
        assert raised_t <= up_t <= cleared_t

    def test_cap_limits_extra_nodes(self):
        runner = ScenarioRunner(autoscale_scenario(
            autoscale=AutoscaleSpec(alarm="pressure", step=5, max_extra_nodes=2,
                                    cooldown_s=1.0),
        ))
        runner.run()
        ups = runner.platform.monitor.of_kind("autoscale_up")
        total_added = sum(len(e.fields["nodes"]) for e in ups)
        assert 0 < total_added <= 2

    def test_loop_identical_across_batch_modes_and_repeats(self, golden, sha256):
        """The acceptance contract: the whole remediation loop is
        deterministic, and matches the report digest recorded when the
        per-event and batched loops (and both execution engines) agreed."""
        first = run_scenario(autoscale_scenario())
        repeat = run_scenario(autoscale_scenario())
        assert first.to_json() == repeat.to_json()
        assert sha256(first.to_json()) == golden["differential"]["autoscale"]
        assert first.alarm_events.get("alarm_raised", 0) >= 1

    def test_alarm_event_timeline_identical_across_modes(self, golden, sha256):
        """Not just the report: the full alarm/autoscale event timeline."""
        runner = ScenarioRunner(autoscale_scenario())
        runner.run()
        timeline = [
            (e.time, e.kind, dict(e.fields))
            for e in runner.platform.monitor.events
            if e.kind.startswith(("alarm_", "autoscale_", "sla_"))
        ]
        assert timeline
        digest = sha256(json.dumps(timeline, sort_keys=True))
        assert digest == golden["differential"]["autoscale_alarm_timeline"]
