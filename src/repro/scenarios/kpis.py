"""Scenario KPIs: distilling a platform run into per-tenant numbers.

The report is assembled from the shared :class:`~repro.cloud.monitor.Monitor`
event log (submission → scheduling latency), the task results held by the
Task Manager (makespans, per-round aggregation records, DeviceFlow loss
counters) and the scenario's own submission ledger.  Everything is plain
data with a deterministic JSON rendering, so two runs of the same spec and
seed must produce byte-identical reports — the scenario-level determinism
contract the tests enforce.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.observability import evaluate_slas
from repro.scheduler.task import TaskState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.platform import SimDC
    from repro.observability import AlarmEngine, AutoscalePolicy
    from repro.scenarios.spec import ScenarioSpec

#: Monitor event kinds the observability loop emits (counted like faults).
OBSERVABILITY_KINDS = (
    "alarm_raised",
    "alarm_cleared",
    "sla_violation",
    "sla_recovered",
    "autoscale_up",
    "autoscale_down",
)


@dataclass
class StatSummary:
    """Five-number summary of one KPI distribution."""

    n: int = 0
    mean: float = 0.0
    p50: float = 0.0
    p95: float = 0.0
    max: float = 0.0

    @classmethod
    def of(cls, values: Sequence[float]) -> StatSummary:
        if not len(values):
            return cls()
        arr = np.asarray(values, dtype=np.float64)
        return cls(
            n=int(arr.size),
            mean=float(arr.mean()),
            p50=float(np.quantile(arr, 0.5)),
            p95=float(np.quantile(arr, 0.95)),
            max=float(arr.max()),
        )


@dataclass
class TenantKPIs:
    """One tenant's end-to-end experience of the scenario."""

    tenant: str
    submitted: int = 0
    completed: int = 0
    failed: int = 0
    #: Seconds from submission to the scheduler granting resources.
    queue_wait: StatSummary = field(default_factory=StatSummary)
    #: Seconds from task start to completion (execution only).
    makespan: StatSummary = field(default_factory=StatSummary)
    #: Seconds from submission to completion (what the tenant feels).
    turnaround: StatSummary = field(default_factory=StatSummary)
    #: Seconds between successive aggregations within each task.
    round_duration: StatSummary = field(default_factory=StatSummary)
    #: Device updates that should have arrived vs. actually aggregated.
    updates_expected: int = 0
    updates_aggregated: int = 0
    #: Updates DeviceFlow lost (transmission failures + discards).
    dropout_lost: int = 0
    #: Transport-layer totals (zero when no channel/deadline was armed):
    #: channel retries, duplicate deliveries dropped by the dedup table,
    #: uploads that missed the round deadline, uploads abandoned after
    #: exhausting the retry budget.
    transport_retries: int = 0
    transport_duplicates: int = 0
    transport_late_drops: int = 0
    transport_abandoned: int = 0
    #: Mean final test accuracy over completed numeric tasks (None when
    #: the tenant runs time-only tasks).
    final_accuracy: float | None = None
    #: Resource-time footprint (for utilization and fairness accounting).
    bundle_seconds: float = 0.0
    phone_seconds: float = 0.0


@dataclass
class ScenarioReport:
    """Everything a scenario run reports back."""

    scenario: str
    seed: int
    #: Always ``True``: every run takes the wave-scheduled path.  Kept so
    #: report JSON (and its pinned digests) stays byte-identical.
    batch: bool = True
    #: Simulated time when the last task finished.
    finished_at: float = 0.0
    total_tasks: int = 0
    total_devices: int = 0
    tenants: dict[str, TenantKPIs] = field(default_factory=dict)
    #: Jain fairness index over per-tenant mean slowdowns (1.0 = every
    #: tenant suffers the same queueing stretch relative to its work).
    fairness: float = 1.0
    #: Fraction of bundle-capacity-time the logical tier spent frozen.
    bundle_utilization: float = 0.0
    #: Per-grade fraction of phone-time reserved by tasks.
    phone_utilization: dict[str, float] = field(default_factory=dict)
    #: Fault-plan events that actually fired, by monitor kind.
    fault_events: dict[str, int] = field(default_factory=dict)
    #: Per-rule raise/clear counts and final state from the alarm engine.
    alarms: dict[str, dict] = field(default_factory=dict)
    #: Observability events that fired (alarm/SLA/autoscale kinds).
    alarm_events: dict[str, int] = field(default_factory=dict)
    #: Autoscaler action totals, or ``None`` when no policy was armed.
    autoscale: dict | None = None
    #: Final SLA verdicts: one row per (tenant, objective); see
    #: :func:`repro.observability.evaluate_slas` for the row shape.
    slas: list[dict] = field(default_factory=list)
    #: Whether every SLA row holds (the CLI's ``--sla`` exit code).
    sla_ok: bool = True

    def sla_violations(self) -> list[dict]:
        """The SLA rows that failed."""
        return [row for row in self.slas if not row["ok"]]

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        """Deterministic rendering (sorted keys, no whitespace drift)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def summary_lines(self) -> list[str]:
        """Human-readable report (the CLI's output)."""
        lines = [
            f"scenario {self.scenario} (seed {self.seed})",
            f"  {self.total_tasks} tasks / {self.total_devices} simulated devices, "
            f"finished at t={self.finished_at:.0f}s",
            f"  fairness (Jain over tenant slowdowns): {self.fairness:.3f}; "
            f"bundle utilization {self.bundle_utilization:.1%}",
        ]
        if self.phone_utilization:
            util = ", ".join(f"{g}={u:.1%}" for g, u in sorted(self.phone_utilization.items()))
            lines.append(f"  phone utilization: {util}")
        if self.fault_events:
            fired = ", ".join(f"{k}={v}" for k, v in sorted(self.fault_events.items()))
            lines.append(f"  faults fired: {fired}")
        retries = sum(k.transport_retries for k in self.tenants.values())
        duplicates = sum(k.transport_duplicates for k in self.tenants.values())
        late = sum(k.transport_late_drops for k in self.tenants.values())
        abandoned = sum(k.transport_abandoned for k in self.tenants.values())
        if retries or duplicates or late or abandoned:
            lines.append(
                f"  transport: {retries} retries, {duplicates} duplicates dropped, "
                f"{late} late-dropped, {abandoned} abandoned"
            )
        if self.alarm_events:
            fired = ", ".join(f"{k}={v}" for k, v in sorted(self.alarm_events.items()))
            lines.append(f"  observability events: {fired}")
        if self.autoscale is not None:
            a = self.autoscale
            lines.append(
                f"  autoscale[{a['alarm']}]: {a['scale_ups']} up / "
                f"{a['scale_downs']} down, {a['extra_nodes_left']} extra left"
            )
        for row in self.slas:
            value = "n/a" if row["value"] is None else f"{row['value']:.4g}"
            bound = "<=" if row["direction"] == "max" else ">="
            verdict = "ok" if row["ok"] else "VIOLATED"
            lines.append(
                f"  SLA {row['tenant']}: {row['metric']} {bound} "
                f"{row['limit']:g} (value {value}) {verdict}"
            )
        header = (
            f"  {'tenant':<16} {'done':>9} {'q-wait p50/p95':>16} "
            f"{'makespan p50':>12} {'rounds p50':>10} {'lost':>6} {'final acc':>9}"
        )
        lines.append(header)
        for name in sorted(self.tenants):
            k = self.tenants[name]
            acc = f"{k.final_accuracy:.4f}" if k.final_accuracy is not None else "-"
            lines.append(
                f"  {name:<16} {k.completed:>4}/{k.submitted:<4} "
                f"{k.queue_wait.p50:>7.1f}/{k.queue_wait.p95:<8.1f} "
                f"{k.makespan.p50:>12.1f} {k.round_duration.p50:>10.1f} "
                f"{k.dropout_lost:>6} {acc:>9}"
            )
        return lines


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index: ``(sum x)^2 / (n * sum x^2)`` in (0, 1]."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0 or not np.any(arr):
        return 1.0
    return float((arr.sum() ** 2) / (arr.size * (arr**2).sum()))


def build_report(
    spec: ScenarioSpec,
    platform: SimDC,
    submissions: dict[str, list[tuple[str, float]]],
    finished_at: float,
    alarms: AlarmEngine | None = None,
    autoscaler: AutoscalePolicy | None = None,
) -> ScenarioReport:
    """Aggregate one finished run into a :class:`ScenarioReport`.

    ``submissions`` maps tenant name to its ``(task_id, submit_time)``
    ledger (the engine records it while scheduling the arrival events).
    ``alarms`` / ``autoscaler`` are the run's live observability objects
    (their summaries and the authoritative final SLA check land in the
    report).
    """
    report = ScenarioReport(
        scenario=spec.name,
        seed=spec.seed,
        finished_at=finished_at,
    )
    total_bundles = platform.resource_manager.total_bundles()
    phones_by_grade = platform.resource_manager.phones_by_grade()
    results = platform.results  # one snapshot; the property copies the dict
    span = max(finished_at, 1e-9)
    phone_seconds_by_grade: dict[str, float] = {}
    slowdowns: list[float] = []

    for tenant in spec.tenants:
        ledger = submissions.get(tenant.name, [])
        kpis = TenantKPIs(tenant=tenant.name, submitted=len(ledger))
        queue_waits: list[float] = []
        makespans: list[float] = []
        turnarounds: list[float] = []
        round_durations: list[float] = []
        accuracies: list[float] = []
        for task_id, submit_time in ledger:
            result = results.get(task_id)
            if result is None:
                continue
            if result.state is TaskState.FAILED:
                kpis.failed += 1
                continue
            kpis.completed += 1
            queue_waits.append(result.started_at - submit_time)
            makespans.append(result.makespan)
            turnarounds.append(result.finished_at - submit_time)
            previous = result.started_at
            for record in result.rounds:
                round_durations.append(record.time - previous)
                previous = record.time
                kpis.updates_aggregated += record.n_updates
            kpis.updates_expected += tenant.devices_per_task * tenant.rounds
            if result.flow_stats is not None:
                kpis.dropout_lost += result.flow_stats.dropped
            transport = getattr(result, "transport", None)
            if transport is not None:
                kpis.transport_retries += transport["retries"]
                kpis.transport_duplicates += transport["duplicate_drops"]
                kpis.transport_late_drops += transport["late_drops"]
                kpis.transport_abandoned += transport["abandoned"]
            if result.rounds and result.rounds[-1].test_accuracy is not None:
                accuracies.append(result.rounds[-1].test_accuracy)
            task_bundles = sum(g.bundles for g in tenant.grades)
            kpis.bundle_seconds += task_bundles * result.makespan
            for grade in tenant.grades:
                seconds = (grade.n_phones + grade.n_benchmark) * result.makespan
                kpis.phone_seconds += seconds
                phone_seconds_by_grade[grade.grade] = (
                    phone_seconds_by_grade.get(grade.grade, 0.0) + seconds
                )
        kpis.queue_wait = StatSummary.of(queue_waits)
        kpis.makespan = StatSummary.of(makespans)
        kpis.turnaround = StatSummary.of(turnarounds)
        kpis.round_duration = StatSummary.of(round_durations)
        if accuracies:
            kpis.final_accuracy = float(np.mean(accuracies))
        report.tenants[tenant.name] = kpis
        report.total_tasks += kpis.submitted
        report.total_devices += tenant.devices_per_task * kpis.submitted
        if makespans:
            # Slowdown: how much queueing stretched the tenant's work.
            slowdowns.append(float(np.mean(turnarounds)) / max(float(np.mean(makespans)), 1e-9))

    report.fairness = jain_index(slowdowns)
    if total_bundles > 0:
        used = sum(k.bundle_seconds for k in report.tenants.values())
        report.bundle_utilization = used / (total_bundles * span)
    for grade, seconds in sorted(phone_seconds_by_grade.items()):
        fleet = phones_by_grade.get(grade, 0)
        if fleet > 0:
            report.phone_utilization[grade] = seconds / (fleet * span)
    for kind, count in platform.monitor.summary().items():
        if kind.startswith("fault_"):
            report.fault_events[kind] = count
        elif kind in OBSERVABILITY_KINDS:
            report.alarm_events[kind] = count
    if alarms is not None:
        report.alarms = alarms.summary()
    if autoscaler is not None:
        report.autoscale = autoscaler.summary()
    report.slas = evaluate_slas(spec.all_slas(), report.tenants)
    report.sla_ok = all(row["ok"] for row in report.slas)
    return report
