"""Fault-tolerant device→cloud transport: a seedable lossy channel.

Real device-cloud deployments never enjoy the lossless, exactly-once,
zero-latency uplink the simulator's ingestion path assumed: uploads are
lost, retried with backoff, occasionally duplicated, and rejected
wholesale while the ingestion service is down.  This module models that
loop deterministically:

* :class:`ChannelModel` — declarative channel behaviour: base delivery
  latency plus uniform jitter, loss/duplication probabilities, and
  scheduled :class:`ChannelWindow` impairments (per-tenant ``loss`` /
  ``duplication`` / ``outage`` windows driven by the scenario fault
  plan).
* a device-side retry policy — capped exponential backoff with
  deterministic jitter drawn from a device-keyed rng stream; after
  ``max_attempts`` sends the upload is *abandoned*.
* :class:`TransportChannel` — the simulation adapter: it fronts any
  :class:`~repro.cloud.sink.OutcomeSink`, plans one upload per device
  round (columnar blocks are routed per device so block and per-device
  delivery consume identical draws), and delivers surviving uploads through
  a :class:`~repro.simkernel.TimeoutPool` at their arrival times.

Determinism contract: every draw comes from a per-``(task, device)``
stream keyed only on ids, and the number of draws per upload depends
only on the *send* times (never on ``sim.now`` at delivery), so repeat
runs and block-vs-per-device deliveries consume identical random
sequences.
Duplicated deliveries share the primary's arrival time, and the
downstream :class:`~repro.cloud.sink.CloudIngestSink` dedup table folds
them exactly once; the FedAvg fold is error-free-transformed, so the
aggregate is bit-identical no matter the delivery order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.simkernel import Signal, TimeoutPool

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.actor import DeviceRoundOutcome
    from repro.observability.tracing import Tracer
    from repro.simkernel import RandomStreams, Simulator

#: Impairment kinds a window can schedule (mirrors the FaultSpec kinds
#: ``message_loss`` / ``message_duplication`` / ``service_outage``).
WINDOW_KINDS = ("loss", "duplication", "outage")


@dataclass
class ChannelWindow:
    """One scheduled impairment interval on the channel.

    ``prob`` is the extra loss/duplication probability while the window
    is active (ignored for ``outage``, which rejects every send).  An
    empty ``tenant`` applies the window to every task on the channel.
    """

    kind: str
    at: float
    until: float
    prob: float = 1.0
    tenant: str = ""

    def __post_init__(self) -> None:
        if self.kind not in WINDOW_KINDS:
            raise ValueError(f"unknown channel window kind {self.kind!r}; known: {WINDOW_KINDS}")
        if self.until <= self.at:
            raise ValueError(
                f"channel window must end after it starts: until={self.until!r} <= at={self.at!r}"
            )
        if not 0.0 < self.prob <= 1.0:
            raise ValueError(f"channel window prob must be in (0, 1], got {self.prob!r}")

    def active(self, time: float, scope: str) -> bool:
        return self.at <= time < self.until and (not self.tenant or self.tenant == scope)


@dataclass
class UploadPlan:
    """The planned fate of one device-round upload.

    ``arrival`` is the simulated delivery time of the surviving send, or
    ``None`` when every attempt was lost (the upload is abandoned).
    """

    arrival: float | None
    retries: int
    duplicate: bool


@dataclass
class TransportCounters:
    """Transport bookkeeping for one round (or whole task)."""

    uploads: int = 0
    delivered: int = 0
    retries: int = 0
    duplicates: int = 0
    abandoned: int = 0
    late_drops: int = 0

    def merge(self, other: TransportCounters) -> None:
        self.uploads += other.uploads
        self.delivered += other.delivered
        self.retries += other.retries
        self.duplicates += other.duplicates
        self.abandoned += other.abandoned
        self.late_drops += other.late_drops

    def as_dict(self) -> dict[str, int]:
        return {
            "uploads": self.uploads,
            "delivered": self.delivered,
            "retries": self.retries,
            "duplicates": self.duplicates,
            "abandoned": self.abandoned,
            "late_drops": self.late_drops,
        }


@dataclass
class ChannelModel:
    """Declarative device→cloud channel behaviour.

    Base impairments apply for the whole run; :attr:`windows` add
    scheduled intervals on top (active probabilities combine as
    independent loss sources).  The retry policy is capped exponential
    backoff — attempt *k* waits ``min(retry_cap_s, retry_base_s *
    2**(k-1))`` scaled by a deterministic jitter in ``[0.5, 1.0)``.
    """

    latency_s: float = 0.0
    jitter_s: float = 0.0
    loss_prob: float = 0.0
    dup_prob: float = 0.0
    retry_base_s: float = 2.0
    retry_cap_s: float = 60.0
    max_attempts: int = 4
    windows: list[ChannelWindow] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.latency_s < 0.0 or self.jitter_s < 0.0:
            raise ValueError(
                f"channel latency/jitter must be >= 0, got "
                f"latency_s={self.latency_s!r}, jitter_s={self.jitter_s!r}"
            )
        if not 0.0 <= self.loss_prob < 1.0:
            raise ValueError(f"loss_prob must be in [0, 1), got {self.loss_prob!r}")
        if not 0.0 <= self.dup_prob <= 1.0:
            raise ValueError(f"dup_prob must be in [0, 1], got {self.dup_prob!r}")
        if self.retry_base_s <= 0.0 or self.retry_cap_s <= 0.0:
            raise ValueError(
                f"retry backoff must be > 0, got base={self.retry_base_s!r}, "
                f"cap={self.retry_cap_s!r}"
            )
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts!r}")

    def loss_prob_at(self, time: float, scope: str) -> float:
        """Combined loss probability at ``time`` (independent sources)."""
        keep = 1.0 - self.loss_prob
        for window in self.windows:
            if window.kind == "loss" and window.active(time, scope):
                keep *= 1.0 - window.prob
        return 1.0 - keep

    def dup_prob_at(self, time: float, scope: str) -> float:
        """Combined duplication probability at ``time``."""
        keep = 1.0 - self.dup_prob
        for window in self.windows:
            if window.kind == "duplication" and window.active(time, scope):
                keep *= 1.0 - window.prob
        return 1.0 - keep

    def in_outage(self, time: float, scope: str) -> bool:
        """Whether the ingestion service rejects sends at ``time``."""
        return any(
            window.kind == "outage" and window.active(time, scope) for window in self.windows
        )

    def active_for(self, scope: str) -> bool:
        """Whether this channel can perturb ``scope``'s uploads at all.

        A trivial model (no base impairment, no applicable window) lets
        the runner skip the channel entirely, keeping the lossless run
        byte-identical to no channel at all.
        """
        if self.latency_s > 0.0 or self.jitter_s > 0.0:
            return True
        if self.loss_prob > 0.0 or self.dup_prob > 0.0:
            return True
        return any(not window.tenant or window.tenant == scope for window in self.windows)

    def plan_upload(self, rng, t0: float, scope: str = "") -> UploadPlan:
        """Plan one upload that first becomes ready at time ``t0``.

        Draw counts depend only on the send times derived from ``t0``,
        never on the caller's clock, so the plan is identical whether
        the upload is routed per device or from a columnar block.
        """
        t_send = float(t0)
        for attempt in range(1, self.max_attempts + 1):
            if self.in_outage(t_send, scope):
                lost = True  # the service rejects the send outright
            else:
                p = self.loss_prob_at(t_send, scope)
                lost = p > 0.0 and rng.random() < p
            if not lost:
                arrival = t_send + self.latency_s
                if self.jitter_s > 0.0:
                    arrival += rng.random() * self.jitter_s
                q = self.dup_prob_at(t_send, scope)
                duplicate = q > 0.0 and rng.random() < q
                return UploadPlan(arrival=arrival, retries=attempt - 1, duplicate=duplicate)
            if attempt < self.max_attempts:
                backoff = min(self.retry_cap_s, self.retry_base_s * (2.0 ** (attempt - 1)))
                t_send += backoff * (0.5 + 0.5 * rng.random())
        return UploadPlan(arrival=None, retries=self.max_attempts - 1, duplicate=False)


class TransportChannel:
    """Simulation adapter: runs a :class:`ChannelModel` in front of a sink.

    Presents the :class:`~repro.cloud.sink.OutcomeSink` protocol to the
    execution tiers; plans each device's upload with a device-keyed rng
    stream and delivers survivors to ``inner`` through a
    :class:`TimeoutPool` at their (possibly retried, possibly late)
    arrival times.  Columnar blocks are materialized and routed per
    device in assignment order — the same draws, in the same order, as
    per-device delivery.

    The runner awaits :meth:`finish_round` after the round barrier so
    in-flight deliveries land before aggregation; deliveries scheduled
    in the past (block rows whose wave already completed) are clamped to
    *now*, which never changes the round-end time because the barrier
    already dominates every block timestamp.
    """

    def __init__(
        self,
        sim: Simulator,
        model: ChannelModel,
        inner,
        streams: RandomStreams,
        task_id: str,
        scope: str = "",
        tracer: Tracer | None = None,
    ) -> None:
        self.sim = sim
        self.model = model
        self.inner = inner
        self.streams = streams
        self.task_id = task_id
        self.scope = scope
        self.tracer = tracer
        self.prefers_blocks = bool(getattr(inner, "prefers_blocks", True))
        self.pool = TimeoutPool(sim, name=f"transport.{task_id}")
        self.totals = TransportCounters()
        self.round = TransportCounters()
        self._deadline: float | None = None
        self._pending = 0
        self._drained: Signal | None = None

    def begin_round(self, round_index: int, deadline: float | None = None) -> None:
        """Reset per-round counters; drop deliveries at/after ``deadline``."""
        self.round = TransportCounters()
        self._deadline = deadline

    def accept(self, outcome: DeviceRoundOutcome) -> None:
        self._route(outcome)

    def accept_block(self, block) -> None:
        # Per-device routing keeps the draw order identical to
        # per-device delivery; the exact-sum fold downstream makes the
        # delivery order irrelevant to the aggregate.
        for outcome in block.materialize():
            self._route(outcome)

    def _route(self, outcome: DeviceRoundOutcome) -> None:
        self.round.uploads += 1
        rng = self.streams.get(f"transport.{self.task_id}.{outcome.device_id}")
        t0 = float(outcome.finished_at)
        plan = self.model.plan_upload(rng, t0, self.scope)
        self.round.retries += plan.retries
        tracer = self.tracer
        if tracer is not None:
            # The channel is the transport boundary: record the device's
            # completion here (the fronted sink skips its own record) and
            # the upload's planned fate.  Pure appends — no draws, no
            # kernel events — so the traced run stays byte-identical.
            tracer.record_device(
                self.task_id,
                outcome.device_id,
                outcome.grade,
                outcome.round_index,
                outcome.n_samples,
                outcome.payload_bytes,
                t0,
            )
        if plan.arrival is None:
            self.round.abandoned += 1
            if tracer is not None:
                tracer.record_upload(
                    self.task_id, outcome.device_id, outcome.round_index,
                    t0, None, plan.retries, False, "abandoned",
                )
            return
        if self._deadline is not None and plan.arrival >= self._deadline:
            # Late primaries are dropped before duplication: a copy of a
            # late upload would be deduplicated against nothing.
            self.round.late_drops += 1
            if tracer is not None:
                tracer.record_upload(
                    self.task_id, outcome.device_id, outcome.round_index,
                    t0, plan.arrival, plan.retries, False, "late",
                )
            return
        self.round.delivered += 1
        if tracer is not None:
            tracer.record_upload(
                self.task_id, outcome.device_id, outcome.round_index,
                t0, plan.arrival, plan.retries, plan.duplicate, "delivered",
            )
        self._schedule(plan.arrival, outcome)
        if plan.duplicate:
            self.round.duplicates += 1
            self._schedule(plan.arrival, outcome)

    def _schedule(self, arrival: float, outcome: DeviceRoundOutcome) -> None:
        self._pending += 1
        self.pool.add_at(max(arrival, self.sim.now), self._deliver, outcome)

    def _deliver(self, outcome: DeviceRoundOutcome) -> None:
        try:
            self.inner.accept(outcome)
        finally:
            self._pending -= 1
            if self._pending == 0 and self._drained is not None:
                self._drained.fire(None)
                self._drained = None

    def finish_round(self):
        """Wait for in-flight deliveries, fold the round into the totals.

        A generator the runner drives with ``yield from``; returns the
        finished round's counters.
        """
        if self._pending > 0:
            self._drained = Signal(name=f"transport.{self.task_id}.drain")
            yield self._drained
        counters = self.round
        self.totals.merge(counters)
        return counters
