"""Outcome sinks: the cloud-side ingestion surface of the compute tiers.

PRs 1-5 batched the kernel, the tiers and the numeric math, which moved
the profiled bottleneck onto per-outcome cloud-side Python: one
``ObjectStorage.put``, one :class:`~repro.deviceflow.messages.Message`
and one aggregation fold per simulated device.  SimDC's own cloud design
treats aggregation as buffer-and-fold over whole rounds (§VI-C), so the
delivery API mirrors that: an :class:`OutcomeSink` receives either one
outcome at a time (``accept``) or a whole wave as a columnar block
(``accept_block``), and :class:`CloudIngestSink` implements the full
cloud path — storage, messaging, aggregation — for both granularities
with byte-identical simulated results.

Scalar → block method map (see README, "Cloud tier"):

========================  ==============================
per-device (scalar)       per-round (columnar block)
========================  ==============================
``sink.accept``           ``sink.accept_block``
``storage.put``           ``storage.put_block``
``Message``               ``MessageBlock``
``deviceflow.submit``     ``deviceflow.submit_block``
``service.receive_message``  ``service.receive_block``
``db.insert``             ``db.insert_many``
========================  ==============================
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

from repro.cloud.aggregation import AggregationService
from repro.cloud.storage import ObjectStorage
from repro.deviceflow.controller import DeviceFlow
from repro.deviceflow.messages import Message, MessageBlock
from repro.simkernel import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    # Imported lazily: cluster.runner imports this module for check_sink,
    # so a runtime import here would be circular.
    from repro.cluster.actor import DeviceRoundOutcome
    from repro.cluster.runner import ColumnarOutcomes
    from repro.observability.tracing import Tracer


@runtime_checkable
class OutcomeSink(Protocol):
    """Receives device-round results from the execution tiers.

    The tiers deliver through exactly one of two granularities:

    * :meth:`accept` — one :class:`DeviceRoundOutcome` at a time, fired
      *as each device completes* (benchmark phones, and every plan
      whose sink asks for streaming).
    * :meth:`accept_block` — one :class:`ColumnarOutcomes` block per
      plan, fired once at the block's last completion time.

    The optional class/instance attribute ``prefers_blocks`` (default
    ``True`` when absent) tells a tier which granularity to use; sinks
    that need per-device delivery (e.g. anything feeding DeviceFlow
    mid-round) set it to ``False``.
    """

    def accept(self, outcome: DeviceRoundOutcome) -> None:
        """Ingest one device's round result."""
        ...  # pragma: no cover - protocol

    def accept_block(self, block: ColumnarOutcomes) -> None:
        """Ingest a whole batched plan's round as one columnar block."""
        ...  # pragma: no cover - protocol


class CallbackSink:
    """Streaming adapter wrapping a ``Callable[[DeviceRoundOutcome], None]``.

    Callbacks observe devices one at a time, so the sink requests
    streaming delivery and materializes any block it is handed.  This is
    how a plain function subscribes to a tier's ``run_round``.
    """

    prefers_blocks = False

    def __init__(self, callback: Callable[[DeviceRoundOutcome], None]) -> None:
        if not callable(callback):
            raise TypeError(f"callback must be callable, got {type(callback).__name__}")
        self.callback = callback

    def accept(self, outcome: DeviceRoundOutcome) -> None:
        self.callback(outcome)

    def accept_block(self, block: ColumnarOutcomes) -> None:
        for outcome in block.materialize():
            self.callback(outcome)


def check_sink(sink: OutcomeSink | None) -> None:
    """Reject a ``run_round`` sink argument that is not an :class:`OutcomeSink`.

    ``None`` is allowed (the tiers then record columnar blocks with no
    delivery at all); bare callables must be wrapped in
    :class:`CallbackSink`.
    """
    if sink is not None and not isinstance(sink, OutcomeSink):
        raise TypeError(
            "sink must implement OutcomeSink (accept/accept_block); wrap a bare "
            f"callable in CallbackSink, got {type(sink).__name__}"
        )


class _BlockUpdateView:
    """Lazy per-device view of a block's stacked model updates.

    ``ObjectStorage.put_block`` stores the whole sequence behind one
    shared handle; a :class:`~repro.ml.fedavg.ModelUpdate` object is only
    built if someone actually ``get``\\ s that device's key — the batched
    aggregation path never does, it folds the stacked arrays directly.
    """

    __slots__ = ("_block",)

    def __init__(self, block: ColumnarOutcomes) -> None:
        self._block = block

    def __len__(self) -> int:
        return len(self._block)

    def __getitem__(self, position: int):
        return self._block.update_at(position)


class CloudIngestSink:
    """The production sink: storage + DeviceFlow/aggregation ingestion.

    Scalar delivery (:meth:`accept`) ingests one outcome: one storage
    put (numeric runs), one
    :class:`Message`, then either a DeviceFlow submission or a direct
    ``service.receive_message``.  Block delivery (:meth:`accept_block`)
    performs the same ingestion wholesale: one ``storage.put_block``
    stamped with the block's per-device completion times, one
    :class:`MessageBlock`, one ``service.receive_block`` fold — with the
    global model bit-identical to the scalar path by FedAvg partition
    invariance.

    Parameters
    ----------
    sim / task_id / storage / service:
        Cloud plumbing and the owning task.
    deviceflow:
        When set, scalar outcomes are submitted to DeviceFlow instead of
        delivered directly; traffic shaping samples per-device arrival
        times mid-round, so a flow-connected sink requests streaming
        delivery (``prefers_blocks`` is ``False``).  Without DeviceFlow
        the sink asks for whole-round blocks.
    dedup:
        Arm the idempotent-ingestion table: every ``(device, round)``
        upload folds exactly once, duplicated/retried deliveries are
        counted in ``duplicate_drops`` and discarded.  Armed whenever a
        lossy transport channel fronts the sink.

    When neither dedup nor a round deadline is armed, every ingestion
    path is byte-for-byte the ungated fast path — the gate costs nothing
    unless the transport layer is in play.
    """

    def __init__(
        self,
        sim: Simulator,
        task_id: str,
        storage: ObjectStorage,
        service: AggregationService,
        deviceflow: DeviceFlow | None = None,
        dedup: bool = False,
        tracer: Tracer | None = None,
        trace_devices: bool = True,
    ) -> None:
        self.sim = sim
        self.task_id = task_id
        self.storage = storage
        self.service = service
        self.deviceflow = deviceflow
        self.prefers_blocks = deviceflow is None
        self.dedup = bool(dedup)
        # ``trace_devices`` is False when a TransportChannel fronts this
        # sink — the channel records each device completion instead
        # (deliveries here would otherwise double-record, once per retry
        # duplicate).  Ingest-gate drops are always recorded here.
        self.tracer = tracer
        self._trace_devices = tracer is not None and trace_devices
        #: Uploads admitted / dropped by the ingestion gate.
        self.delivered = 0
        self.duplicate_drops = 0
        self.late_drops = 0
        self._seen: set[tuple[str, int]] = set()
        self._deadlines: dict[int, float] = {}
        self._guarded = self.dedup

    # ------------------------------------------------------------------
    def begin_round(self, round_index: int, deadline: float | None = None) -> None:
        """Arm the ingestion gate for one round.

        ``deadline`` is an absolute simulated time: scalar deliveries at
        or after it (and block rows finishing at or after it) are
        dropped as late instead of folded.
        """
        if deadline is not None:
            self._deadlines[round_index] = float(deadline)
            self._guarded = True

    def _admit(self, device_id: str, round_index: int, when: float) -> bool:
        """Late/duplicate gate for one upload; updates the counters."""
        deadline = self._deadlines.get(round_index)
        if deadline is not None and when >= deadline:
            self.late_drops += 1
            if self.tracer is not None:
                self.tracer.record_ingest_drop(self.task_id, device_id, round_index, when, "late")
            return False
        if self.dedup:
            key = (device_id, round_index)
            if key in self._seen:
                self.duplicate_drops += 1
                if self.tracer is not None:
                    self.tracer.record_ingest_drop(
                        self.task_id, device_id, round_index, when, "duplicate"
                    )
                return False
            self._seen.add(key)
        self.delivered += 1
        return True

    def _admit_block(self, block: ColumnarOutcomes) -> list[int] | None:
        """Gate a whole block; ``None`` means every row was admitted."""
        deadline = self._deadlines.get(block.round_index)
        if not self.dedup:
            if deadline is None:
                self.delivered += len(block)
                return None
            late = np.asarray(block.finished_at) >= deadline
            n_late = int(late.sum())
            if n_late == 0:
                self.delivered += len(block)
                return None
            self.late_drops += n_late
            if self.tracer is not None:
                for position in np.flatnonzero(late):
                    self.tracer.record_ingest_drop(
                        self.task_id,
                        block.plan.assignments[position].device_id,
                        block.round_index,
                        float(block.finished_at[position]),
                        "late",
                    )
            keep = np.flatnonzero(~late).tolist()
            self.delivered += len(keep)
            return keep
        keep = []
        dropped = False
        for position, assignment in enumerate(block.plan.assignments):
            when = float(block.finished_at[position])
            if deadline is not None and when >= deadline:
                self.late_drops += 1
                dropped = True
                if self.tracer is not None:
                    self.tracer.record_ingest_drop(
                        self.task_id, assignment.device_id, block.round_index, when, "late"
                    )
                continue
            key = (assignment.device_id, block.round_index)
            if key in self._seen:
                self.duplicate_drops += 1
                dropped = True
                if self.tracer is not None:
                    self.tracer.record_ingest_drop(
                        self.task_id, assignment.device_id, block.round_index, when, "duplicate"
                    )
                continue
            self._seen.add(key)
            keep.append(position)
        self.delivered += len(keep)
        return keep if dropped else None

    # ------------------------------------------------------------------
    def accept(self, outcome: DeviceRoundOutcome) -> None:
        """Per-device ingestion: one put, one message, one fold or submit."""
        if self._trace_devices:
            self.tracer.record_device(
                self.task_id,
                outcome.device_id,
                outcome.grade,
                outcome.round_index,
                outcome.n_samples,
                outcome.payload_bytes,
                float(outcome.finished_at),
            )
        # Flow-connected sinks gate at dispatcher delivery instead
        # (:meth:`flow_receive`): a submission is not an ingestion yet.
        if (
            self._guarded
            and self.deviceflow is None
            and not self._admit(outcome.device_id, outcome.round_index, self.sim.now)
        ):
            return
        self._ingest(outcome)

    def _ingest(self, outcome: DeviceRoundOutcome) -> None:
        ref = f"{self.task_id}/{outcome.device_id}/r{outcome.round_index}"
        if outcome.update is not None:
            self.storage.put(
                ref, outcome.update, outcome.payload_bytes, now=self.sim.now,
                writer=outcome.device_id,
            )
        message = Message(
            task_id=self.task_id,
            device_id=outcome.device_id,
            round_index=outcome.round_index,
            payload_ref=ref,
            size_bytes=outcome.payload_bytes,
            n_samples=outcome.n_samples,
            metadata={"grade": outcome.grade},
        )
        if self.deviceflow is not None:
            self.deviceflow.submit(message)
        else:
            self.service.receive_message(message)

    def accept_block(self, block: ColumnarOutcomes) -> None:
        """Whole-round ingestion: one put, one message block, one fold."""
        n = len(block)
        if n == 0:
            return
        if self._trace_devices:
            # O(1): the tracer keeps a reference to the columnar block
            # and expands it to per-device records at assembly time.
            self.tracer.record_block(self.task_id, block)
        if self._guarded and self.deviceflow is None:
            keep = self._admit_block(block)
            if keep is not None:
                # Rows were dropped: ingest the survivors per device (in
                # block order).  The exact-sum fold makes the aggregate
                # bit-identical to a filtered block ingest.
                outcomes = block.materialize()
                for position in keep:
                    self._ingest(outcomes[position])
                return
        round_index = block.round_index
        device_ids = [a.device_id for a in block.plan.assignments]
        refs = [f"{self.task_id}/{d}/r{round_index}" for d in device_ids]
        has_updates = block.update_weights is not None and block.update_biases is not None
        if has_updates:
            self.storage.put_block(
                refs,
                _BlockUpdateView(block),
                block.payload_bytes,
                now=block.finished_at,
                writers=device_ids,
            )
        message_block = MessageBlock(
            task_id=self.task_id,
            round_index=round_index,
            device_ids=device_ids,
            payload_refs=refs,
            size_bytes=block.payload_bytes,
            n_samples=block.n_samples_array(),
            finished_at=block.finished_at,
            metadata={"grade": block.plan.grade},
            update_weights=block.update_weights if has_updates else None,
            update_biases=block.update_biases if has_updates else None,
        )
        if self.deviceflow is not None:
            self.deviceflow.submit_block(message_block)
        else:
            self.service.receive_block(message_block)

    # ------------------------------------------------------------------
    def flow_receive(self, message: Message) -> None:
        """DeviceFlow downstream endpoint with the ingestion gate applied.

        Flow-dispatched messages reach the cloud at dispatcher delivery
        time, so the late/duplicate check runs against ``sim.now`` here
        rather than at outcome production.
        """
        if self._guarded and not self._admit(
            message.device_id, message.round_index, self.sim.now
        ):
            return
        self.service.receive_message(message)
