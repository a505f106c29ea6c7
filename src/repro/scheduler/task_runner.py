"""The Task Runner: end-to-end execution of one scheduled task.

§III-B: "Task Runner dynamically adjusts execution strategies for
scheduled tasks, ensuring that they are allocated to appropriate
heterogeneous resources based on the requested resource amounts and the
number of simulated devices."  Concretely, the runner

1. generates (or receives) the task's federated dataset,
2. solves the §IV-B hybrid allocation problem,
3. builds the logical-tier and physical-tier execution plans,
4. registers the task with DeviceFlow (when traffic shaping is on),
5. drives the configured number of rounds — tiers in parallel, results
   uploaded to storage, messages through DeviceFlow, aggregation on the
   cloud — and
6. tears everything down, returning a :class:`TaskResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Generator
from typing import TYPE_CHECKING

from repro.cloud.aggregation import AggregationRecord, AggregationService, AggregationTrigger
from repro.cloud.database import MetricsDatabase
from repro.cloud.monitor import Monitor
from repro.cloud.sink import CloudIngestSink
from repro.cloud.storage import ObjectStorage
from repro.cloud.transport import ChannelModel, TransportChannel, TransportCounters
from repro.cluster.actor import DeviceAssignment
from repro.cluster.cluster import K8sCluster
from repro.cluster.cost import LogicalCostModel
from repro.cluster.resources import ResourceBundle
from repro.cluster.runner import GradeExecutionPlan, LogicalSimulation
from repro.data.avazu import FederatedDataset, make_federated_ctr_data
from repro.deviceflow.controller import DeviceFlow
from repro.ml.backends import DEVICE_BACKEND, SERVER_BACKEND
from repro.ml.model import LogisticRegressionModel
from repro.phones.adb import SimulatedAdb
from repro.phones.cost import PhysicalCostModel
from repro.phones.phone import VirtualPhone
from repro.phones.phonemgr import PhoneAssignment, PhoneMgr
from repro.scheduler.allocation import (
    AllocationProblem,
    AllocationResult,
    GradeAllocationParams,
    solve_allocation,
)
from repro.scheduler.task import TaskSpec, TaskState
from repro.simkernel import AllOf, RandomStreams, Simulator, Timeout

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observability.tracing import Tracer


@dataclass
class TaskResult:
    """Everything a finished task reports back."""

    task_id: str
    state: TaskState
    allocation: AllocationResult | None
    started_at: float
    finished_at: float
    rounds: list[AggregationRecord] = field(default_factory=list)
    flow_stats: object | None = None
    benchmark_records: list = field(default_factory=list)
    #: Transport totals (uploads/retries/duplicate_drops/late_drops/...)
    #: when a lossy channel or round deadline was armed, else ``None``.
    transport: dict | None = None
    error: str | None = None

    @property
    def makespan(self) -> float:
        """Simulated seconds from start to completion."""
        return self.finished_at - self.started_at


class TaskRunner:
    """Executes one task against the shared platform substrates.

    Parameters
    ----------
    sim / streams:
        Simulation plumbing.
    spec:
        The task to run.
    cluster / logical_cost:
        Logical tier.
    phones / adb / physical_cost / busy_registry:
        Physical tier (the busy registry is shared across runners).
    storage / db / monitor:
        Cloud substrates.
    deviceflow:
        Shared traffic controller (used when the spec carries a strategy).
    fixed_allocation:
        Optional explicit per-grade logical counts overriding the
        optimizer (the Type 1-5 experiments use this).
    channel / channel_scope:
        Optional device→cloud :class:`~repro.cloud.transport.ChannelModel`
        fronting the ingestion sink, and the tenant scope its windows
        match against.  A channel with no applicable impairment is
        skipped entirely — lossless runs stay byte-identical to channel-
        free ones.
    """

    def __init__(
        self,
        sim: Simulator,
        spec: TaskSpec,
        cluster: K8sCluster,
        phones: list[VirtualPhone],
        adb: SimulatedAdb,
        storage: ObjectStorage,
        deviceflow: DeviceFlow | None = None,
        logical_cost: LogicalCostModel | None = None,
        physical_cost: PhysicalCostModel | None = None,
        streams: RandomStreams | None = None,
        busy_registry: set | None = None,
        db: MetricsDatabase | None = None,
        monitor: Monitor | None = None,
        fixed_allocation: dict[str, int] | None = None,
        dataset: FederatedDataset | None = None,
        unit_bundle: ResourceBundle | None = None,
        channel: ChannelModel | None = None,
        channel_scope: str = "",
        tracer: Tracer | None = None,
    ) -> None:
        self.sim = sim
        self.spec = spec
        self.cluster = cluster
        self.storage = storage
        self.deviceflow = deviceflow
        self.logical_cost = logical_cost or LogicalCostModel()
        self.physical_cost = physical_cost or PhysicalCostModel()
        self.streams = streams or RandomStreams(0)
        self.db = db
        self.monitor = monitor
        self.fixed_allocation = fixed_allocation
        self.unit_bundle = unit_bundle if unit_bundle is not None else ResourceBundle(cpus=1.0, memory_gb=1.0)
        self._provided_dataset = dataset
        self.channel = channel
        self.channel_scope = channel_scope
        self.tracer = tracer
        self._sink: CloudIngestSink | None = None
        self._channel: TransportChannel | None = None
        self._open_round: int | None = None
        self.logical = LogicalSimulation(sim, cluster, self.logical_cost, self.streams)
        self.phonemgr = PhoneMgr(
            sim,
            adb,
            phones,
            cost_model=self.physical_cost,
            streams=self.streams,
            busy_registry=busy_registry,
            on_sample=self._store_sample if db is not None else None,
            tracer=tracer,
        )
        self.service: AggregationService | None = None
        self.result: TaskResult | None = None

    # ------------------------------------------------------------------
    def run(self) -> Generator:
        """The task's top-level process; returns a :class:`TaskResult`."""
        spec = self.spec
        spec.state = TaskState.RUNNING
        started = self.sim.now
        self._log("task_started", task_id=spec.task_id)
        try:
            dataset = self._build_dataset()
            allocation = self._solve_allocation()
            logical_plans, phone_plans, grade_devices = self._build_plans(dataset, allocation)
            self.service = self._build_service(dataset, grade_devices)
            uses_flow = self.deviceflow is not None and spec.deviceflow_strategy is not None
            channel_active = self.channel is not None and self.channel.active_for(
                self.channel_scope
            )
            gated = channel_active or spec.deadline_s is not None
            # Flow tasks stream per-device (strategies sample individual
            # arrivals mid-round); direct tasks hand each plan's round to
            # the cloud as one columnar block.
            self._sink = CloudIngestSink(
                self.sim,
                spec.task_id,
                self.storage,
                self.service,
                deviceflow=self.deviceflow if uses_flow else None,
                dedup=channel_active,
                tracer=self.tracer,
                # With a channel fronting the sink, device completions
                # are recorded at the transport boundary instead.
                trace_devices=not channel_active,
            )
            if channel_active:
                self._channel = TransportChannel(
                    self.sim,
                    self.channel,
                    self._sink,
                    self.streams,
                    spec.task_id,
                    scope=self.channel_scope,
                    tracer=self.tracer,
                )
            if uses_flow:
                downstream = (
                    self._sink.flow_receive if gated else self.service.receive_message
                )
                self.deviceflow.register_task(
                    spec.task_id, spec.deviceflow_strategy, downstream
                )
                self._flow_registered = True
            prepares = []
            if logical_plans:
                prepares.append(
                    self.sim.process(
                        self.logical.prepare(logical_plans, task_id=spec.task_id)
                    )
                )
            if phone_plans:
                prepares.append(
                    self.sim.process(self.phonemgr.prepare(phone_plans, task_id=spec.task_id))
                )
            if prepares:
                yield AllOf(prepares)

            model_bytes = LogisticRegressionModel(spec.feature_dim).payload_size()
            for round_index in range(1, spec.rounds + 1):
                yield self.sim.process(
                    self._run_round(round_index, model_bytes, uses_flow),
                    name=f"{spec.task_id}.round{round_index}",
                )
            flow_stats = self.deviceflow.stats(spec.task_id) if uses_flow else None
            self._teardown(uses_flow)
            yield self.sim.process(self.phonemgr.teardown())
            spec.state = TaskState.COMPLETED
            self.result = TaskResult(
                task_id=spec.task_id,
                state=spec.state,
                allocation=allocation,
                started_at=started,
                finished_at=self.sim.now,
                rounds=list(self.service.history),
                flow_stats=flow_stats,
                benchmark_records=list(self.phonemgr.benchmark_records),
                transport=self._transport_summary() if gated else None,
            )
        except Exception as exc:
            spec.state = TaskState.FAILED
            self._emergency_cleanup()
            self.result = TaskResult(
                task_id=spec.task_id,
                state=spec.state,
                allocation=None,
                started_at=started,
                finished_at=self.sim.now,
                error=repr(exc),
            )
            self._log("task_failed", task_id=spec.task_id, error=repr(exc))
            raise
        self._log("task_completed", task_id=spec.task_id, makespan=self.result.makespan)
        return self.result

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _build_dataset(self) -> FederatedDataset | None:
        if not self.spec.numeric:
            return None
        if self._provided_dataset is not None:
            return self._provided_dataset
        return make_federated_ctr_data(
            n_devices=self.spec.total_devices,
            records_per_device=self.spec.records_per_device,
            feature_dim=self.spec.feature_dim,
            seed=self.spec.dataset_seed,
            skew=self.spec.skew,
        )

    def _solve_allocation(self) -> AllocationResult:
        params = []
        flow_work = self.spec.flow.total_work
        for grade in self.spec.grades:
            params.append(
                GradeAllocationParams(
                    grade=grade.grade,
                    n_devices=grade.n_devices,
                    n_benchmark=grade.n_benchmark,
                    bundles=grade.bundles,
                    units_per_device=grade.device_bundle.units_relative_to(self.unit_bundle),
                    n_phones=grade.n_phones,
                    alpha=self.logical_cost.device_round_duration(grade.grade, flow_work),
                    beta=self.physical_cost.training_duration(grade.grade, flow_work),
                    lam=self.physical_cost.startup_duration(grade.grade),
                )
            )
        problem = AllocationProblem(params)
        if self.fixed_allocation is not None:
            from repro.scheduler.allocation import evaluate_allocation

            x = [self.fixed_allocation[g.grade] for g in params]
            result = evaluate_allocation(problem, x)
            result.solver = "fixed"
            return result
        return solve_allocation(problem)

    def _build_plans(
        self, dataset: FederatedDataset | None, allocation: AllocationResult
    ) -> tuple[list[GradeExecutionPlan], list[PhoneAssignment], dict[str, list[str]]]:
        """Split each grade's device ids across tiers per the allocation."""
        available_ids = dataset.device_ids() if dataset is not None else None
        cursor = 0
        logical_plans: list[GradeExecutionPlan] = []
        phone_plans: list[PhoneAssignment] = []
        grade_devices: dict[str, list[str]] = {}

        def make_assignment(device_id: str, grade: str) -> DeviceAssignment:
            if dataset is not None:
                shard = dataset.shard(device_id)
                return DeviceAssignment(device_id, grade, shard.n_samples, dataset=shard)
            return DeviceAssignment(device_id, grade, self.spec.records_per_device)

        for grade_req, grade_alloc in zip(self.spec.grades, allocation.grades):
            if available_ids is not None:
                ids = available_ids[cursor : cursor + grade_req.n_devices]
                cursor += grade_req.n_devices
            else:
                ids = [
                    f"{self.spec.task_id}-{grade_req.grade}-{i:06d}"
                    for i in range(grade_req.n_devices)
                ]
            grade_devices[grade_req.grade] = list(ids)
            bench_ids = ids[: grade_req.n_benchmark]
            split_ids = ids[grade_req.n_benchmark :]
            logical_ids = split_ids[: grade_alloc.logical]
            physical_ids = split_ids[grade_alloc.logical :]

            if logical_ids:
                k = grade_req.device_bundle.units_relative_to(self.unit_bundle)
                n_actors = max(1, grade_req.bundles // k)
                logical_plans.append(
                    GradeExecutionPlan(
                        grade=grade_req.grade,
                        assignments=[make_assignment(d, grade_req.grade) for d in logical_ids],
                        n_actors=n_actors,
                        bundle=grade_req.device_bundle,
                        flow=self.spec.flow,
                        feature_dim=self.spec.feature_dim,
                        backend=SERVER_BACKEND,
                        numeric=self.spec.numeric,
                    )
                )
            if physical_ids or bench_ids:
                phone_plans.append(
                    PhoneAssignment(
                        grade=grade_req.grade,
                        assignments=[make_assignment(d, grade_req.grade) for d in physical_ids],
                        benchmarking=[make_assignment(d, grade_req.grade) for d in bench_ids],
                        n_phones=grade_req.n_phones if physical_ids else 0,
                        flow=self.spec.flow,
                        feature_dim=self.spec.feature_dim,
                        backend=DEVICE_BACKEND,
                        numeric=self.spec.numeric,
                    )
                )
        return logical_plans, phone_plans, grade_devices

    def _build_service(
        self, dataset: FederatedDataset | None, grade_devices: dict[str, list[str]]
    ) -> AggregationService:
        model = LogisticRegressionModel(self.spec.feature_dim) if self.spec.numeric else None
        test_set = dataset.test if dataset is not None else None
        return AggregationService(
            self.sim,
            self.storage,
            trigger=AggregationTrigger(),  # runner-driven round-end aggregation
            model=model,
            test_set=test_set,
            db=self.db,
            name=self.spec.task_id,
        )

    # ------------------------------------------------------------------
    # round execution
    # ------------------------------------------------------------------
    def _run_round(self, round_index: int, model_bytes: int, uses_flow: bool) -> Generator:
        spec = self.spec
        assert self.service is not None and self._sink is not None
        if self.tracer is not None:
            self.tracer.record_round_start(spec.task_id, round_index, self.sim.now)
        if uses_flow:
            self.deviceflow.round_started(spec.task_id, round_index)
        model = self.service.model
        weights, bias = (model.get_params() if model is not None else (None, 0.0))

        # Arm the round's transport gates.  The channel drops late
        # uploads at their computed arrival times for direct tasks; flow
        # tasks are gated at dispatcher delivery (the sink checks
        # ``sim.now``), and their shelves are force-drained at the
        # deadline so the round cannot hang on undispatched messages.
        round_deadline = (
            self.sim.now + spec.deadline_s if spec.deadline_s is not None else None
        )
        self._open_round = round_index
        if self._channel is not None:
            self._channel.begin_round(
                round_index, deadline=None if uses_flow else round_deadline
            )
        self._sink.begin_round(
            round_index,
            deadline=round_deadline if (uses_flow or self._channel is None) else None,
        )
        gate_before = (self._sink.delivered, self._sink.duplicate_drops, self._sink.late_drops)
        if uses_flow and round_deadline is not None:
            self.sim.schedule_at(round_deadline, self._close_flow_round, round_index)

        sink = self._channel if self._channel is not None else self._sink
        tier_processes = []
        if self.logical.plans:
            tier_processes.append(
                self.sim.process(
                    self.logical.run_round(round_index, weights, bias, model_bytes, sink)
                )
            )
        if self.phonemgr.plans:
            tier_processes.append(
                self.sim.process(
                    self.phonemgr.run_round(round_index, weights, bias, model_bytes, sink)
                )
            )
        if tier_processes:
            yield AllOf(tier_processes)
        counters: TransportCounters | None = None
        if self._channel is not None:
            counters = yield from self._channel.finish_round()
        if uses_flow:
            self.deviceflow.round_completed(spec.task_id, round_index)
            yield self.sim.process(self._await_deliveries(), name=f"{spec.task_id}.drain")
        if counters is not None:
            self._log(
                "transport_round",
                task_id=spec.task_id,
                round=round_index,
                uploads=counters.uploads,
                delivered=self._sink.delivered - gate_before[0],
                retries=counters.retries,
                duplicates=self._sink.duplicate_drops - gate_before[1],
                late=counters.late_drops + self._sink.late_drops - gate_before[2],
                abandoned=counters.abandoned,
                expected=spec.total_devices,
            )
        self._open_round = None
        if self.service.pending_updates > 0:
            record = self.service.aggregate_now()
            self._log(
                "round_aggregated",
                task_id=spec.task_id,
                round=round_index,
                n_updates=record.n_updates,
                n_devices=spec.total_devices,
                test_accuracy=record.test_accuracy,
            )
            if self.tracer is not None:
                self.tracer.record_fold(
                    spec.task_id,
                    round_index,
                    self.sim.now,
                    record.n_updates,
                    record.test_accuracy,
                )
        if self.tracer is not None:
            self.tracer.record_round_end(spec.task_id, round_index, self.sim.now)

    def _await_deliveries(self) -> Generator:
        """Block until DeviceFlow has delivered or dropped everything.

        ``received`` is frozen once the round's computation is done, so
        the drain condition is monotone and this loop terminates for any
        bounded strategy schedule.
        """
        assert self.deviceflow is not None
        while True:
            stats = self.deviceflow.stats(self.spec.task_id)
            if stats.shelved == 0 and stats.delivered + stats.dropped >= stats.received:
                return
            yield Timeout(1.0)

    def _close_flow_round(self, round_index: int) -> None:
        """Deadline closure for flow rounds: drop undispatched messages.

        Scheduled at the round's absolute deadline; a no-op when the
        round already finished (the guard also covers crashed tasks).
        Already-dispatched late messages are dropped by the sink's gate
        at delivery time.
        """
        if not getattr(self, "_flow_registered", False) or self._open_round != round_index:
            return
        dropped = self.deviceflow.discard_shelved(self.spec.task_id)
        if dropped > 0:
            self._log(
                "round_deadline_closed",
                task_id=self.spec.task_id,
                round=round_index,
                dropped=dropped,
            )

    def _transport_summary(self) -> dict:
        """Task-level transport totals (channel + ingestion gate)."""
        totals = self._channel.totals if self._channel is not None else TransportCounters()
        summary = totals.as_dict()
        summary["delivered"] = self._sink.delivered
        summary["duplicate_drops"] = self._sink.duplicate_drops
        summary["late_drops"] = totals.late_drops + self._sink.late_drops
        return summary

    def _teardown(self, uses_flow: bool) -> None:
        self.logical.teardown()
        if uses_flow:
            self.deviceflow.unregister_task(self.spec.task_id)
            self._flow_registered = False

    def _emergency_cleanup(self) -> None:
        """Best-effort release of every concrete resource after a crash.

        The Task Manager releases the bookkeeping grant; this method
        returns the *physical* allocations — cluster placement group,
        phone reservations, DeviceFlow registration — so sibling and
        queued tasks are unaffected.
        """
        self.logical.teardown()
        self.phonemgr.abort()
        if getattr(self, "_flow_registered", False) and self.deviceflow is not None:
            self.deviceflow.force_unregister(self.spec.task_id)
            self._flow_registered = False

    # ------------------------------------------------------------------
    def _store_sample(self, sample) -> None:
        assert self.db is not None
        self.db.insert(
            "device_samples",
            {
                "task_id": self.spec.task_id,
                "serial": sample.serial,
                "time": sample.timestamp,
                "current_ua": sample.current_ua,
                "voltage_mv": sample.voltage_mv,
                "cpu_percent": sample.cpu_percent,
                "memory_kb": sample.memory_kb,
                "rx_bytes": sample.rx_bytes,
                "tx_bytes": sample.tx_bytes,
            },
        )

    def _log(self, kind: str, **fields) -> None:
        if self.monitor is not None:
            self.monitor.log(kind, **fields)
