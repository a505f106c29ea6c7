"""The SimDC platform: one object wiring every substrate together.

Typical usage::

    from repro import SimDC, TaskSpec, GradeRequirement

    platform = SimDC()
    spec = TaskSpec(
        name="quickstart",
        grades=[GradeRequirement(grade="High", n_devices=20, bundles=40,
                                 n_phones=2, device_bundle=ResourceBundle(4, 12))],
        rounds=3,
    )
    platform.submit(spec)
    platform.run_until_idle()
    result = platform.result(spec.task_id)
"""

from __future__ import annotations

from typing import Any

from repro.cloud.database import MetricsDatabase
from repro.cloud.monitor import Monitor
from repro.cloud.storage import ObjectStorage
from repro.cluster.cluster import K8sCluster
from repro.cluster.cost import LogicalCostModel
from repro.core.config import PlatformConfig
from repro.data.avazu import FederatedDataset
from repro.deviceflow.controller import DeviceFlow
from repro.phones.adb import SimulatedAdb
from repro.phones.cost import PhysicalCostModel
from repro.phones.msp import MobileServicePlatform
from repro.phones.phone import VirtualPhone
from repro.scheduler.resource_manager import ResourceManager
from repro.scheduler.task import TaskSpec
from repro.scheduler.task_manager import TaskManager
from repro.scheduler.task_runner import TaskResult, TaskRunner
from repro.simkernel import RandomStreams, Simulator


class SimDC:
    """A fully wired SimDC deployment over the discrete-event kernel.

    Construction stands up the logical cluster, the local + MSP phone
    fleet behind a simulated ADB, shared storage, the metrics database,
    DeviceFlow, the resource manager and the task manager.  Tasks are
    submitted as :class:`~repro.scheduler.task.TaskSpec` objects and the
    whole deployment advances by running the simulator.
    """

    def __init__(self, config: PlatformConfig | None = None) -> None:
        self.config = config or PlatformConfig()
        self.sim = Simulator()
        self.streams = RandomStreams(self.config.seed)
        self.monitor = Monitor(self.sim)
        self.db = MetricsDatabase()
        self.storage = ObjectStorage()
        self.cluster = K8sCluster(self.config.cluster_nodes)
        self.adb = SimulatedAdb()
        self.phones: list[VirtualPhone] = []
        for index, spec in enumerate(self.config.local_fleet):
            phone = VirtualPhone(self.sim, f"local-{index:03d}", spec, streams=self.streams)
            self.adb.register(phone)
            self.phones.append(phone)
        self.msp = MobileServicePlatform(
            self.sim,
            self.adb,
            self.config.msp_fleet,
            streams=self.streams,
            control_latency=self.config.msp_control_latency,
            availability=self.config.msp_availability,
        )
        self.phones.extend(self.msp.provision())
        self.deviceflow = DeviceFlow(
            self.sim,
            streams=self.streams,
            capacity_per_second=self.config.deviceflow_capacity,
            tracer=self.config.tracer,
        )
        self.resource_manager = ResourceManager(
            self.cluster, self.phones, unit_bundle=self.config.unit_bundle
        )
        self._busy_registry: set[str] = set()
        self._runner_options: dict[str, dict[str, Any]] = {}
        self.task_manager = TaskManager(
            self.sim,
            self.resource_manager,
            runner_factory=self._make_runner,
            monitor=self.monitor,
            scheduling_interval=self.config.scheduling_interval,
        )

    # ------------------------------------------------------------------
    # task API
    # ------------------------------------------------------------------
    def submit(
        self,
        spec: TaskSpec,
        fixed_allocation: dict[str, int] | None = None,
        dataset: FederatedDataset | None = None,
        at: float | None = None,
        logical_cost: LogicalCostModel | None = None,
        physical_cost: PhysicalCostModel | None = None,
        channel_scope: str = "",
    ) -> TaskSpec:
        """Queue a task; optional overrides for arrival, allocation and data.

        ``fixed_allocation`` maps grade name to the logical-tier device
        count, bypassing the optimizer (used by the Type 1-5 ratio
        studies); ``dataset`` supplies a pre-built federated dataset
        instead of the spec-derived synthetic one.  ``at`` defers the
        submission to an absolute simulated time (the scenario engine
        schedules whole task streams this way); ``logical_cost`` /
        ``physical_cost`` replace the platform-wide cost models for this
        task only (straggler injection slows a tenant down with scaled
        copies).  ``channel_scope`` is the tenant name the configured
        transport channel's per-tenant windows match against.
        """
        options: dict[str, Any] = {}
        if fixed_allocation is not None:
            options["fixed_allocation"] = dict(fixed_allocation)
        if dataset is not None:
            options["dataset"] = dataset
        if logical_cost is not None:
            options["logical_cost"] = logical_cost
        if physical_cost is not None:
            options["physical_cost"] = physical_cost
        if channel_scope:
            options["channel_scope"] = channel_scope
        self._runner_options[spec.task_id] = options
        if at is not None:
            return self.task_manager.submit_at(spec, at)
        return self.task_manager.submit(spec)

    def run(self, until: float | None = None) -> float:
        """Advance simulated time (see :meth:`Simulator.run`).

        The kernel drains same-timestamp events in batches
        (:meth:`Simulator.step_batch`).
        """
        return self.sim.run(until=until, batch=True)

    def run_until_idle(self, max_time: float | None = None) -> float:
        """Run until every submitted task reaches a terminal state."""
        return self.sim.run_until(
            lambda: self.task_manager.all_idle, max_time=max_time, batch=True
        )

    def result(self, task_id: str) -> TaskResult:
        """Result of a completed task."""
        return self.task_manager.result_of(task_id)

    @property
    def results(self) -> dict[str, TaskResult]:
        """All finished task results keyed by task id."""
        return dict(self.task_manager.results)

    # ------------------------------------------------------------------
    # monitoring (the GUI's data source)
    # ------------------------------------------------------------------
    def status_report(self) -> str:
        """A human-readable snapshot of the whole deployment.

        The paper's users watch "various computational metrics, edge
        device performance, and updates to cloud services" via a GUI
        (§III-C); this is the equivalent text view.
        """
        snapshot = self.resource_manager.snapshot()
        lines = [
            f"simulated time: {self.sim.now:.1f}s",
            (
                f"cluster: {self.cluster.free_cpus:g}/{self.cluster.total_cpus:g} CPUs free, "
                f"{snapshot.free_bundles} unit bundles unfrozen"
            ),
            "phones free by grade: "
            + ", ".join(f"{g}={n}" for g, n in sorted(snapshot.free_phones.items())),
            (
                f"tasks: {len(self.task_manager.queue)} queued, "
                f"{self.task_manager.active_tasks} running, "
                f"{len(self.task_manager.results)} finished"
            ),
        ]
        for task_id, result in sorted(self.task_manager.results.items()):
            summary = f"  {task_id}: {result.state.value}, makespan {result.makespan:.0f}s"
            if result.rounds and result.rounds[-1].test_accuracy is not None:
                summary += f", final test acc {result.rounds[-1].test_accuracy:.4f}"
            lines.append(summary)
        counters = self.monitor.summary()
        if counters:
            lines.append(
                "events: " + ", ".join(f"{k}={v}" for k, v in sorted(counters.items()))
            )
        return "\n".join(lines)

    def _make_runner(self, spec: TaskSpec) -> TaskRunner:
        options = self._runner_options.pop(spec.task_id, {})
        return TaskRunner(
            sim=self.sim,
            spec=spec,
            cluster=self.cluster,
            phones=self.phones,
            adb=self.adb,
            storage=self.storage,
            deviceflow=self.deviceflow,
            logical_cost=options.get("logical_cost") or self.config.logical_cost,
            physical_cost=options.get("physical_cost") or self.config.physical_cost,
            streams=self.streams,
            busy_registry=self._busy_registry,
            db=self.db,
            monitor=self.monitor,
            fixed_allocation=options.get("fixed_allocation"),
            dataset=options.get("dataset"),
            unit_bundle=self.config.unit_bundle,
            channel=self.config.channel,
            channel_scope=options.get("channel_scope", ""),
            tracer=self.config.tracer,
        )
