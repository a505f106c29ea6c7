"""End-to-end task tracing: deterministic sim-time span trees.

The paper's GUI promise — operators "monitor various computational
metrics, edge device performance, and updates to cloud services
throughout the task execution process" (§III-C) — needs more than
aggregate KPIs: it needs *one task's journey* through the platform.
This module assembles that journey as a span tree per task:

    task
    ├── queue_wait            (submission → scheduler grant)
    ├── dispatch              (grant → runner start)
    └── round r
        ├── wave w (grade)    (derived: devices sharing a completion time)
        │   └── device_round  (round start → upload completion)
        │       ├── upload    (transport attempt chain: retries/drops)
        │       └── flow      (DeviceFlow shelve → dispatcher delivery)
        ├── bench_stage ×5    (the Table-I five-stage phone protocol)
        ├── ingest_drop       (dedup/late rejections at the cloud gate)
        └── aggregate         (the round's FedAvg fold)

Spans live entirely on the *simulated* clock and every span id is a
deterministic function of ``(task, round, device, kind)``, so two runs
of the same spec and seed produce byte-identical traces.  Recording is two-phase to keep the simulation hot path clean:

* :class:`Tracer` — append-only capture.  Instrumentation points in the
  task runner, transport channel, ingestion sink, DeviceFlow and the
  phone manager call ``record_*`` methods that append plain tuples (or,
  for batched plans, one reference to the whole columnar block); nothing
  is formatted, sorted or allocated per span while the simulation runs.
  Every instrumentation point is guarded by ``tracer is not None``, so
  an untraced run executes exactly the code it executed before tracing
  existed — zero cost when off, and byte-identical reports when on
  (recording never touches a random stream or the event queue).
* :func:`assemble_trace` — post-run distillation of the Tracer's capture
  plus the :class:`~repro.cloud.monitor.Monitor` event log (task
  lifecycle, per-round transport KPIs) into a sorted :class:`Trace`.

Wave spans are *derived*, not recorded: a wave is the set of a round's
devices sharing ``(grade, finished_at)``, which is identical whether
the run computed those times via the wave-scheduled cumsum or the
per-device reference model (:mod:`repro.reference`) — so their span
trees agree by construction.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Callable

    from repro.cloud.monitor import Monitor
    from repro.cluster.runner import ColumnarOutcomes

#: Every span kind the assembler can emit, with the tree level it lives
#: at (documentation + the README reference table; exporters use it to
#: pick renderable categories).
SPAN_KINDS = {
    "task": "root: one scheduled task, submission to completion",
    "queue_wait": "task child: submission → scheduler resource grant",
    "dispatch": "task child: resource grant → runner start",
    "round": "task child: one collaboration round, start → aggregation",
    "wave": "round child: devices sharing one (grade, completion-time)",
    "device_round": "wave child: one device's train+upload leg",
    "upload": "device child: transport attempt chain (retries, drops)",
    "flow": "device child: DeviceFlow shelve → dispatcher delivery",
    "bench_stage": "round child: one Table-I benchmark-phone stage",
    "ingest_drop": "round child (instant): dedup/late gate rejection",
    "aggregate": "round child (instant): the round's FedAvg fold",
}

#: Terminal states an ``upload`` span can report.
UPLOAD_STATUSES = ("delivered", "late", "abandoned")


@dataclass
class Span:
    """One sim-time interval in a task's journey.

    ``span_id`` is stable across runs — a pure function of the task id,
    round index, device id and kind — so differential tests can compare
    whole traces bytewise.  Instant events are spans with ``end ==
    start``.
    """

    span_id: str
    parent_id: str | None
    name: str
    kind: str
    start: float
    end: float
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }


class Trace:
    """A finished run's span tree, sorted and queryable."""

    def __init__(self, name: str, spans: list[Span]) -> None:
        self.name = name
        #: Sorted by ``(start, span_id)`` — a total, deterministic order.
        self.spans = sorted(spans, key=lambda s: (s.start, s.span_id))
        self._by_id = {span.span_id: span for span in self.spans}
        if len(self._by_id) != len(self.spans):
            seen: set[str] = set()
            dupes = {s.span_id for s in self.spans if s.span_id in seen or seen.add(s.span_id)}
            raise ValueError(f"duplicate span ids in trace: {sorted(dupes)[:5]}")

    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self):
        return iter(self.spans)

    def span(self, span_id: str) -> Span:
        return self._by_id[span_id]

    def of_kind(self, kind: str) -> list[Span]:
        return [span for span in self.spans if span.kind == kind]

    def children(self, span_id: str) -> list[Span]:
        return [span for span in self.spans if span.parent_id == span_id]

    def counts_by_kind(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for span in self.spans:
            counts[span.kind] = counts.get(span.kind, 0) + 1
        return counts

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "spans": [span.to_dict() for span in self.spans]}

    def to_json(self) -> str:
        """Deterministic rendering (sorted keys, no whitespace drift)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


class Tracer:
    """Append-only capture of a run's trace records.

    One Tracer serves one platform run.  The record methods are the
    whole hot-path surface: each appends one plain tuple (or one block
    reference) to a list.  Everything else — span construction, wave
    derivation, sorting — happens once, after the run, in
    :func:`assemble_trace`.
    """

    def __init__(self) -> None:
        #: (task, device, grade, round, n_samples, payload_bytes, finished_at)
        self.devices: list[tuple[str, str, str, int, int, int, float]] = []
        #: (task, block) — whole batched plans, expanded at assembly.
        self.device_blocks: list[tuple[str, ColumnarOutcomes]] = []
        #: (task, round, time)
        self.round_starts: list[tuple[str, int, float]] = []
        self.round_ends: list[tuple[str, int, float]] = []
        #: (task, round, time, n_updates, test_accuracy)
        self.folds: list[tuple[str, int, float, int, float | None]] = []
        #: (task, device, round, t0, arrival-or-None, retries, duplicate, status)
        self.uploads: list[tuple[str, str, int, float, float | None, int, bool, str]] = []
        #: (task, device, round, time, reason) — reason: duplicate | late
        self.ingest_drops: list[tuple[str, str, int, float, str]] = []
        #: (task, device, round, time)
        self.flow_submits: list[tuple[str, str, int, float]] = []
        self.flow_deliveries: list[tuple[str, str, int, float]] = []
        #: (task, serial, device, round, stage, start, end)
        self.bench_stages: list[tuple[str, str, str, int, str, float, float]] = []

    # -- hot-path record methods (append one tuple each) ----------------
    def record_device(
        self,
        task_id: str,
        device_id: str,
        grade: str,
        round_index: int,
        n_samples: int,
        payload_bytes: int,
        finished_at: float,
    ) -> None:
        self.devices.append(
            (task_id, device_id, grade, round_index, n_samples, payload_bytes, finished_at)
        )

    def record_block(self, task_id: str, block: ColumnarOutcomes) -> None:
        """O(1) capture of a whole batched plan's round."""
        self.device_blocks.append((task_id, block))

    def record_round_start(self, task_id: str, round_index: int, time: float) -> None:
        self.round_starts.append((task_id, round_index, time))

    def record_round_end(self, task_id: str, round_index: int, time: float) -> None:
        self.round_ends.append((task_id, round_index, time))

    def record_fold(
        self,
        task_id: str,
        round_index: int,
        time: float,
        n_updates: int,
        test_accuracy: float | None,
    ) -> None:
        self.folds.append((task_id, round_index, time, n_updates, test_accuracy))

    def record_upload(
        self,
        task_id: str,
        device_id: str,
        round_index: int,
        t0: float,
        arrival: float | None,
        retries: int,
        duplicate: bool,
        status: str,
    ) -> None:
        self.uploads.append(
            (task_id, device_id, round_index, t0, arrival, retries, duplicate, status)
        )

    def record_ingest_drop(
        self, task_id: str, device_id: str, round_index: int, time: float, reason: str
    ) -> None:
        self.ingest_drops.append((task_id, device_id, round_index, time, reason))

    def record_flow_submit(
        self, task_id: str, device_id: str, round_index: int, time: float
    ) -> None:
        self.flow_submits.append((task_id, device_id, round_index, time))

    def record_flow_delivery(
        self, task_id: str, device_id: str, round_index: int, time: float
    ) -> None:
        self.flow_deliveries.append((task_id, device_id, round_index, time))

    def record_bench_stage(
        self,
        task_id: str,
        serial: str,
        device_id: str,
        round_index: int,
        stage: str,
        start: float,
        end: float,
    ) -> None:
        self.bench_stages.append((task_id, serial, device_id, round_index, stage, start, end))

    # ------------------------------------------------------------------
    def all_devices(self) -> list[tuple[str, str, str, int, int, int, float]]:
        """Scalar device records plus expanded columnar blocks."""
        records = list(self.devices)
        for task_id, block in self.device_blocks:
            grade = block.plan.grade
            payload = block.payload_bytes
            round_index = block.round_index
            finished = block.finished_at
            for position, assignment in enumerate(block.plan.assignments):
                records.append(
                    (
                        task_id,
                        assignment.device_id,
                        grade,
                        round_index,
                        assignment.n_samples,
                        payload,
                        float(finished[position]),
                    )
                )
        return records


# ----------------------------------------------------------------------
# assembly
# ----------------------------------------------------------------------
def _span_id(task_id: str, *parts: Any) -> str:
    return "/".join([f"t:{task_id}", *map(str, parts)])


def assemble_trace(
    monitor: Monitor,
    tracer: Tracer,
    name: str = "run",
    tenant_of: Callable[[str], str] | None = None,
) -> Trace:
    """Distil a finished run's capture into a :class:`Trace`.

    ``monitor`` supplies the task lifecycle (submitted / scheduled /
    started / completed / failed) and the per-round ``transport_round``
    KPI events that annotate round spans; ``tracer`` supplies everything
    device-level.  ``tenant_of`` maps a task id to its tenant (the
    scenario runner's convention) — the tenant lands in the task span's
    attrs so span identity is effectively ``(tenant, task, round,
    device, kind)``.
    """
    spans: list[Span] = []

    # -- task lifecycle from the Monitor's per-kind index ---------------
    submitted = {e.fields["task_id"]: e.time for e in monitor.of_kind("task_submitted")}
    scheduled = {e.fields["task_id"]: e.time for e in monitor.of_kind("task_scheduled")}
    started = {e.fields["task_id"]: e.time for e in monitor.of_kind("task_started")}
    completed = {e.fields["task_id"]: e.time for e in monitor.of_kind("task_completed")}
    failed = {e.fields["task_id"]: e.time for e in monitor.of_kind("task_failed")}

    round_starts: dict[tuple[str, int], float] = {
        (task, index): time for task, index, time in tracer.round_starts
    }
    round_ends: dict[tuple[str, int], float] = {
        (task, index): time for task, index, time in tracer.round_ends
    }
    devices = tracer.all_devices()

    # Tasks come from every source that can name one: traced tasks with
    # no monitor (a bare TaskRunner) still get a root span.
    task_ids = sorted(
        set(submitted)
        | set(started)
        | {task for task, _index, _time in tracer.round_starts}
        | {record[0] for record in devices}
    )

    device_end_by_task: dict[str, float] = defaultdict(float)
    for record in devices:
        task = record[0]
        device_end_by_task[task] = max(device_end_by_task[task], record[6])

    task_span_ids: dict[str, str] = {}
    round_span_ids: dict[tuple[str, int], str] = {}
    round_spans: dict[tuple[str, int], Span] = {}
    for task in task_ids:
        t_submit = submitted.get(task)
        t_sched = scheduled.get(task)
        t_start = started.get(task)
        t_end = completed.get(task, failed.get(task))
        rounds_of_task = sorted(k[1] for k in round_starts if k[0] == task)
        first = min(
            (t for t in (t_submit, t_start) if t is not None),
            default=round_starts.get((task, rounds_of_task[0])) if rounds_of_task else 0.0,
        )
        if t_end is None:
            t_end = max(
                device_end_by_task.get(task, first),
                max((round_ends.get((task, r), first) for r in rounds_of_task), default=first),
            )
        root_id = _span_id(task)
        task_span_ids[task] = root_id
        status = "failed" if task in failed else ("completed" if task in completed else "open")
        attrs: dict[str, Any] = {"task": task, "status": status}
        if tenant_of is not None:
            attrs["tenant"] = tenant_of(task)
        spans.append(
            Span(root_id, None, task, "task", first, t_end, attrs)
        )
        if t_submit is not None and t_sched is not None:
            spans.append(
                Span(
                    _span_id(task, "queue"),
                    root_id,
                    "queue wait",
                    "queue_wait",
                    t_submit,
                    t_sched,
                    {"task": task},
                )
            )
        if t_sched is not None and t_start is not None:
            spans.append(
                Span(
                    _span_id(task, "dispatch"),
                    root_id,
                    "dispatch",
                    "dispatch",
                    t_sched,
                    t_start,
                    {"task": task},
                )
            )

        # -- rounds ------------------------------------------------------
        for round_index in rounds_of_task:
            r_start = round_starts[(task, round_index)]
            r_end = round_ends.get((task, round_index), r_start)
            round_id = _span_id(task, f"r{round_index}")
            round_span_ids[(task, round_index)] = round_id
            round_span = Span(
                round_id,
                root_id,
                f"round {round_index}",
                "round",
                r_start,
                r_end,
                {"task": task, "round": round_index},
            )
            round_spans[(task, round_index)] = round_span
            spans.append(round_span)

    # Per-round transport KPIs (monitor events) annotate round spans.
    # ``count_kind`` is O(1): lossless runs skip the annotation loop
    # without building a view.
    transport_events = (
        monitor.of_kind("transport_round") if monitor.count_kind("transport_round") else ()
    )
    for event in transport_events:
        key = (event.fields["task_id"], event.fields["round"])
        round_span = round_spans.get(key)
        if round_span is None:
            continue
        round_span.attrs["transport"] = {
            k: event.fields[k]
            for k in ("uploads", "delivered", "retries", "duplicates", "late", "abandoned")
        }

    # -- aggregation folds ----------------------------------------------
    for task, round_index, time, n_updates, accuracy in tracer.folds:
        round_id = round_span_ids.get((task, round_index))
        attrs = {"task": task, "round": round_index, "n_updates": n_updates}
        if accuracy is not None:
            attrs["test_accuracy"] = accuracy
        spans.append(
            Span(
                _span_id(task, f"r{round_index}", "aggregate"),
                round_id,
                "aggregate",
                "aggregate",
                time,
                time,
                attrs,
            )
        )

    # -- waves (derived) and device spans -------------------------------
    # A wave is a round's devices sharing (grade, finished_at): equal in
    # the wave cumsum and the reference model's per-device chain by the
    # platform's bit-identity contract, so both derive the same waves.
    by_round: dict[tuple[str, int], list[tuple]] = defaultdict(list)
    for record in devices:
        by_round[(record[0], record[3])].append(record)
    device_span_ids: set[str] = set()
    for (task, round_index), records in sorted(by_round.items()):
        round_id = round_span_ids.get((task, round_index))
        r_start = round_starts.get((task, round_index), min(r[6] for r in records))
        waves: dict[tuple[str, float], list[tuple]] = defaultdict(list)
        for record in records:
            waves[(record[2], record[6])].append(record)
        previous_end: dict[str, float] = {}
        wave_index: dict[str, int] = {}
        for grade, finished in sorted(waves):
            index = wave_index.get(grade, 0)
            wave_index[grade] = index + 1
            wave_id = _span_id(task, f"r{round_index}", grade, f"w{index}")
            members = waves[(grade, finished)]
            spans.append(
                Span(
                    wave_id,
                    round_id,
                    f"{grade} wave {index}",
                    "wave",
                    previous_end.get(grade, r_start),
                    finished,
                    {
                        "task": task,
                        "round": round_index,
                        "grade": grade,
                        "n_devices": len(members),
                    },
                )
            )
            previous_end[grade] = finished
            for _task, device, grade_, _round, n_samples, payload, finished_at in members:
                device_span_ids.add(_span_id(task, f"r{round_index}", f"d:{device}"))
                spans.append(
                    Span(
                        _span_id(task, f"r{round_index}", f"d:{device}"),
                        wave_id,
                        device,
                        "device_round",
                        r_start,
                        finished_at,
                        {
                            "task": task,
                            "round": round_index,
                            "device": device,
                            "grade": grade_,
                            "n_samples": n_samples,
                            "payload_bytes": payload,
                        },
                    )
                )

    # -- transport upload chains ----------------------------------------
    for task, device, round_index, t0, arrival, retries, duplicate, status in sorted(
        tracer.uploads
    ):
        device_id = _span_id(task, f"r{round_index}", f"d:{device}")
        parent = device_id if device_id in device_span_ids else None
        end = arrival if arrival is not None else t0
        spans.append(
            Span(
                _span_id(task, f"r{round_index}", f"d:{device}", "upload"),
                parent,
                "upload",
                "upload",
                t0,
                end,
                {
                    "task": task,
                    "round": round_index,
                    "device": device,
                    "retries": retries,
                    "duplicate": duplicate,
                    "status": status,
                },
            )
        )

    # -- ingestion-gate drops -------------------------------------------
    occurrence: dict[tuple, int] = defaultdict(int)
    for task, device, round_index, time, reason in sorted(tracer.ingest_drops):
        key = (task, device, round_index, reason)
        suffix = f"drop:{reason}" if occurrence[key] == 0 else f"drop:{reason}#{occurrence[key]}"
        occurrence[key] += 1
        spans.append(
            Span(
                _span_id(task, f"r{round_index}", f"d:{device}", suffix),
                round_span_ids.get((task, round_index)),
                f"{reason} drop",
                "ingest_drop",
                time,
                time,
                {"task": task, "round": round_index, "device": device, "reason": reason},
            )
        )

    # -- DeviceFlow shelve → delivery -----------------------------------
    deliveries: dict[tuple[str, str, int], list[float]] = defaultdict(list)
    for task, device, round_index, time in sorted(tracer.flow_deliveries):
        deliveries[(task, device, round_index)].append(time)
    submit_occurrence: dict[tuple, int] = defaultdict(int)
    for task, device, round_index, time in sorted(tracer.flow_submits):
        key = (task, device, round_index)
        position = submit_occurrence[key]
        submit_occurrence[key] += 1
        times = deliveries.get(key, [])
        delivered = position < len(times)
        end = times[position] if delivered else time
        device_id = _span_id(task, f"r{round_index}", f"d:{device}")
        parent = device_id if device_id in device_span_ids else None
        suffix = "flow" if position == 0 else f"flow#{position}"
        spans.append(
            Span(
                _span_id(task, f"r{round_index}", f"d:{device}", suffix),
                parent,
                "flow",
                "flow",
                time,
                end,
                {
                    "task": task,
                    "round": round_index,
                    "device": device,
                    "status": "delivered" if delivered else "lost",
                },
            )
        )

    # -- benchmark-phone stages -----------------------------------------
    for task, serial, device, round_index, stage, start, end in sorted(tracer.bench_stages):
        spans.append(
            Span(
                _span_id(task, f"r{round_index}", f"bench:{serial}", stage),
                round_span_ids.get((task, round_index)),
                f"{serial} {stage}",
                "bench_stage",
                start,
                end,
                {
                    "task": task,
                    "round": round_index,
                    "device": device,
                    "serial": serial,
                    "stage": stage,
                },
            )
        )

    return Trace(name, spans)
