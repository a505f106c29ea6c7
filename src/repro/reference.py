"""The scalar reference model: the oracle the wave-scheduled tiers are tested against.

The production tiers (:class:`~repro.cluster.runner.LogicalSimulation`
and :class:`~repro.phones.phonemgr.PhoneMgr`) run every round on a wave
schedule: whole plans become cumsum time vectors in a timeout pool and
flows execute as stacked blocks.  This module keeps the direct,
per-device formulation of the same semantics:

* each actor (§IV-A) or computing phone (§IV-C) is one generator process
  working through its device queue — download or push, train, upload —
  one timeout at a time, executing the flow per device with
  :meth:`~repro.ml.operators.OperatorFlow.execute`;
* each benchmarking phone gets its own sampler process that polls the
  five raw ADB commands and parses their text output.

The two formulations must agree bit for bit: outcomes, completion times,
model updates, benchmark samples and phone state.  The differential tests
and ``benchmarks/`` compare the wave path against the classes here; no
module under ``repro`` imports this one.
"""

from __future__ import annotations

from collections.abc import Callable, Generator, Iterator
from contextlib import contextmanager
from typing import TypeVar

import numpy as np

import repro.scheduler.task_runner as task_runner
from repro.cloud.sink import OutcomeSink
from repro.cluster.actor import DeviceAssignment, DeviceRoundOutcome, SimActor
from repro.cluster.runner import GradeExecutionPlan, LogicalSimulation, RoundResult
from repro.ml.operators import OperatorContext
from repro.phones.metrics import DeviceMetricSample, parse_metric_sample, parse_pgrep_pid
from repro.phones.phone import VirtualPhone
from repro.phones.phonemgr import BenchmarkRecord, PhoneAssignment, PhoneMgr
from repro.simkernel import AllOf, RandomStreams, Timeout

T = TypeVar("T")


def partition_round_robin(items: list[T], n_queues: int) -> list[list[T]]:
    """Deterministic round-robin split: item ``i`` goes to queue ``i % n``."""
    queues: list[list[T]] = [[] for _ in range(n_queues)]
    for index, item in enumerate(items):
        queues[index % n_queues].append(item)
    return queues


# ----------------------------------------------------------------------
# logical tier
# ----------------------------------------------------------------------
def actor_round(
    actor: SimActor,
    assignments: list[DeviceAssignment],
    plan: GradeExecutionPlan,
    streams: RandomStreams,
    round_index: int,
    global_weights: np.ndarray | None,
    global_bias: float,
    model_bytes: int,
    on_outcome: Callable[[DeviceRoundOutcome], None],
) -> Generator:
    """One actor works through its device queue for one round.

    Per §VI-B4, "each actor in the logical simulation must download the
    corresponding data and model for its simulated devices" — the model
    download is paid once per actor per round, then each queued device
    advances the clock by its grade's alpha and uploads its result.
    """
    sim = actor.sim
    if assignments:
        yield sim.process(actor.download(model_bytes), name=f"{actor.actor_id}.model-dl")
    for assignment in assignments:
        yield Timeout(actor.cost_model.device_round_duration(assignment.grade, plan.flow.total_work))
        update = None
        payload = model_bytes
        if plan.numeric:
            if assignment.dataset is None:
                raise RuntimeError(f"device {assignment.device_id} has no dataset but the run is numeric")
            context = OperatorContext(
                assignment.device_id, assignment.grade, assignment.dataset, plan.feature_dim, plan.backend,
                global_weights, global_bias, round_index,
                # Keyed by device, never by actor: which slot simulates a
                # device must not change its randomness.
                streams.get(f"device.{assignment.device_id}.sgd"),
            )
            update = plan.flow.execute(context).outputs.get("update")
            if update is not None:
                payload = update.payload_bytes()
        # Upload the result to shared storage before messaging the cloud.
        yield Timeout(actor.cost_model.transfer_duration(payload))
        on_outcome(
            DeviceRoundOutcome(
                device_id=assignment.device_id,
                grade=assignment.grade,
                round_index=round_index,
                n_samples=assignment.n_samples,
                payload_bytes=payload,
                update=update,
                finished_at=sim.now,
            )
        )


class ReferenceLogicalSimulation(LogicalSimulation):
    """Logical tier whose rounds run one generator per actor.

    Every result streams to ``sink.accept`` as its device completes.
    """

    def run_round(
        self,
        round_index: int,
        global_weights: np.ndarray | None,
        global_bias: float,
        model_bytes: int,
        sink: OutcomeSink | None = None,
    ) -> Generator:
        if self.placement_group is None and self.plans:
            raise RuntimeError("call prepare() before run_round()")
        result = RoundResult(round_index=round_index, started_at=self.sim.now)

        def collect(outcome: DeviceRoundOutcome) -> None:
            result.outcomes.append(outcome)
            if sink is not None:
                sink.accept(outcome)

        processes = []
        for plan in self.plans:
            queues = partition_round_robin(plan.assignments, plan.n_actors)
            for actor, queue in zip(self.actors[plan.grade], queues):
                processes.append(
                    self.sim.process(
                        actor_round(
                            actor, queue, plan, self.streams, round_index,
                            global_weights, global_bias, model_bytes, collect,
                        ),
                        name=f"{actor.actor_id}.round{round_index}",
                    )
                )
        if processes:
            yield AllOf(processes)
        result.finished_at = self.sim.now
        self.rounds.append(result)
        return result


# ----------------------------------------------------------------------
# physical tier
# ----------------------------------------------------------------------
class _SamplerProcess:
    """One benchmarking phone's dedicated polling process."""

    def __init__(self, mgr: ReferencePhoneMgr, phone: VirtualPhone, record: BenchmarkRecord) -> None:
        self.active = True
        self.stopped = mgr.sim.process(self._loop(mgr, phone, record), name=f"{phone.serial}.sampler")

    def _loop(self, mgr: ReferencePhoneMgr, phone: VirtualPhone, record: BenchmarkRecord) -> Generator:
        while self.active:
            mgr._record_sample(phone, record)
            yield Timeout(mgr.poll_interval)


def sample_via_adb(mgr: PhoneMgr, phone: VirtualPhone) -> DeviceMetricSample:
    """One sample via the five raw ADB commands and string post-processing."""
    adb, package = mgr.adb, mgr.apk.package
    current_raw = adb.shell(phone.serial, "cat /sys/class/power_supply/battery/current_now")
    voltage_raw = adb.shell(phone.serial, "cat /sys/class/power_supply/battery/voltage_now")
    pid = parse_pgrep_pid(adb.shell(phone.serial, f"pgrep -f {package}")) or 0
    if pid:
        top_raw = adb.shell(phone.serial, f"top -b -n 1 -p {pid}")
        dumpsys_raw = adb.shell(phone.serial, f"dumpsys meminfo {package} | grep PSS")
        net_raw = adb.shell(phone.serial, f"cat /proc/{pid}/net/dev | grep wlan")
    else:
        top_raw, dumpsys_raw, net_raw = "", "", ""
    return parse_metric_sample(
        timestamp=mgr.sim.now,
        serial=phone.serial,
        current_raw=current_raw,
        voltage_raw=voltage_raw,
        top_raw=top_raw,
        pid=pid,
        dumpsys_raw=dumpsys_raw,
        net_dev_raw=net_raw,
    )


class ReferencePhoneMgr(PhoneMgr):
    """Phone tier with one generator per computing phone and per sampler.

    Benchmarking phones run the production five-stage protocol, but poll
    through their own sampler processes over raw ADB.  Mid-round
    :meth:`abort` is not modelled.
    """

    def run_round(
        self,
        round_index: int,
        global_weights: np.ndarray | None,
        global_bias: float,
        model_bytes: int,
        sink: OutcomeSink | None = None,
    ) -> Generator:
        result = RoundResult(round_index=round_index, started_at=self.sim.now)

        def collect(outcome: DeviceRoundOutcome) -> None:
            result.outcomes.append(outcome)
            if sink is not None:
                sink.accept(outcome)

        model = (global_weights, global_bias, model_bytes)
        processes = []
        for plan in self.plans:
            queues = partition_round_robin(plan.assignments, max(1, plan.n_phones))
            for phone, queue in zip(self.computing_phones[plan.grade], queues):
                processes.append(
                    self.sim.process(
                        self._run_computing_phone(phone, queue, round_index, plan, *model, collect),
                        name=f"{phone.serial}.round{round_index}",
                    )
                )
            for phone, assignment in zip(self.benchmark_phones[plan.grade], plan.benchmarking):
                processes.append(
                    self.sim.process(
                        self._run_benchmark_phone(phone, assignment, round_index, plan, *model, collect),
                        name=f"{phone.serial}.bench{round_index}",
                    )
                )
        if processes:
            yield AllOf(processes)
        result.finished_at = self.sim.now
        self.rounds.append(result)
        return result

    def _run_computing_phone(
        self,
        phone: VirtualPhone,
        queue: list[DeviceAssignment],
        round_index: int,
        plan: PhoneAssignment,
        global_weights: np.ndarray | None,
        global_bias: float,
        model_bytes: int,
        on_outcome: Callable[[DeviceRoundOutcome], None],
    ) -> Generator:
        """Sequentially emulate the queued devices on one phone."""
        for assignment in queue:
            # `is not None`, not truthiness: a zero-record dataset stages
            # its (zero) real bytes.
            data_bytes = (
                assignment.dataset.nbytes() if assignment.dataset is not None else 64 * assignment.n_samples
            )
            yield Timeout(self.adb.push_duration(phone.serial, data_bytes + model_bytes))
            duration = self.cost_model.training_duration(plan.grade, plan.flow.total_work)
            update = None
            payload = model_bytes
            if plan.numeric:
                update = self._execute_flow(assignment, round_index, plan, global_weights, global_bias)
                if update is not None:
                    payload = update.payload_bytes()
            yield phone.start_training(duration, upload_bytes=payload)
            yield Timeout(payload / phone.spec.network_bandwidth_bps)
            on_outcome(
                DeviceRoundOutcome(
                    device_id=assignment.device_id,
                    grade=plan.grade,
                    round_index=round_index,
                    n_samples=assignment.n_samples,
                    payload_bytes=payload,
                    update=update,
                    finished_at=self.sim.now,
                )
            )

    def _register_sampled_phone(self, phone: VirtualPhone, record: BenchmarkRecord) -> _SamplerProcess:
        return _SamplerProcess(self, phone, record)

    def _record_sample(self, phone: VirtualPhone, record: BenchmarkRecord) -> None:
        sample = sample_via_adb(self, phone)
        record.samples.append(sample)
        if self.on_sample is not None:
            self.on_sample(sample)


# ----------------------------------------------------------------------
# whole platform
# ----------------------------------------------------------------------
@contextmanager
def reference_tiers() -> Iterator[None]:
    """Build every task runner inside the block on the reference tiers.

    Platforms (and scenario runners) whose tasks start inside the
    ``with`` block execute their rounds through
    :class:`ReferenceLogicalSimulation` and :class:`ReferencePhoneMgr`;
    every device result then streams per device into the cloud sink.
    """
    saved = task_runner.LogicalSimulation, task_runner.PhoneMgr
    task_runner.LogicalSimulation, task_runner.PhoneMgr = ReferenceLogicalSimulation, ReferencePhoneMgr
    try:
        yield
    finally:
        task_runner.LogicalSimulation, task_runner.PhoneMgr = saved
