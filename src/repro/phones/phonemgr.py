"""PhoneMgr: task execution and performance measurement on phones.

§IV-C: PhoneMgr "first handles the downloading and distribution of data,
then employs Android Debug Bridge (ADB) commands to directly control the
execution process of phone devices".  It also distinguishes *Computing
Devices* (repeatedly emulating simulated devices) from *Benchmarking
Devices* (running the five-stage measured protocol of Table I), polls the
latter "at a certain frequency, organizes [the data] in real-time, and
uploads it to the cloud database".

Execution strategy (mirroring the logical tier's wave schedule):

* **Wave-scheduled computing phones** — a plan's emulation queues are
  laid out columnar: per-phone push / training / upload legs become one
  interleaved cumsum per phone, registered as ascending sequences in a
  :class:`~repro.simkernel.TimeoutPool`.  Numeric flows execute as ONE
  block across every device queued on the plan's phones
  (:meth:`~repro.ml.operators.OperatorFlow.execute_block`), and
  phone-side state (battery accounts, WLAN counters, session counts) is
  replayed from the precomputed wave times
  (:meth:`~repro.phones.phone.VirtualPhone.replay_training_sessions`).
* **Shared benchmark sampler ticker** — one recurring pooled tick per
  PhoneMgr samples every active benchmarking phone, reading the virtual
  sensors directly (:func:`~repro.phones.metrics.direct_metric_sample`)
  instead of round-tripping ADB strings.

Outcomes, finish times, samples and phone state are bit-identical to the
per-device reference model in :mod:`repro.reference` (one generator per
phone, one sampler process per benchmarking phone, raw ADB commands),
which the differential tests use as the oracle.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import chain
from collections.abc import Callable, Generator
from typing import TYPE_CHECKING

import numpy as np

from repro.cloud.sink import OutcomeSink, check_sink
from repro.cluster.actor import DeviceAssignment, DeviceRoundOutcome
from repro.cluster.runner import ColumnarOutcomes, RoundResult, package_update
from repro.ml.backends import DEVICE_BACKEND, NumericBackend
from repro.ml.fedavg import ModelUpdate
from repro.ml.operators import BlockOperatorContext, OperatorContext, OperatorFlow
from repro.phones.adb import SimulatedAdb
from repro.phones.apk import ApkStage, TrainingApk
from repro.phones.cost import PhysicalCostModel
from repro.phones.metrics import (
    DeviceMetricSample,
    StageSummary,
    direct_metric_sample,
    integrate_energy_mah,
)
from repro.phones.phone import VirtualPhone
from repro.simkernel import AllOf, RandomStreams, RecurringTimeout, Signal, Simulator, Timeout, TimeoutPool

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observability.tracing import Tracer


@dataclass
class PhoneAssignment:
    """The physical tier's share of one device grade for a task.

    Attributes
    ----------
    grade:
        Device grade.
    assignments:
        Computing devices emulated on phones (``N - q - x`` of them).
    benchmarking:
        Devices reserved for performance measurement (``q`` of them);
        "these devices are not reused as computation units in a single
        round" (§VI-B1).
    n_phones:
        Computing phones requested (the allocation model's ``m``).
    flow / feature_dim / backend / numeric:
        Execution parameters, mirroring the logical tier's plan.
    """

    grade: str
    assignments: list[DeviceAssignment]
    benchmarking: list[DeviceAssignment]
    n_phones: int
    flow: OperatorFlow
    feature_dim: int = 4096
    backend: NumericBackend = DEVICE_BACKEND
    numeric: bool = True

    def __post_init__(self) -> None:
        if self.n_phones < 0:
            raise ValueError("n_phones must be >= 0")
        if self.assignments and self.n_phones == 0:
            raise ValueError("computing devices require at least one phone")
        # Grade homogeneity, mirroring GradeExecutionPlan: the wave schedule
        # broadcasts one training duration per plan and the block executor
        # stacks every queued device, both of which assume a single grade.
        for assignment in chain(self.assignments, self.benchmarking):
            if assignment.grade != self.grade:
                raise ValueError(
                    f"assignment {assignment.device_id!r} has grade "
                    f"{assignment.grade!r} but the plan is for grade {self.grade!r}"
                )


@dataclass
class BenchmarkRecord:
    """Everything measured on one benchmarking phone in one round."""

    serial: str
    round_index: int
    samples: list[DeviceMetricSample] = field(default_factory=list)
    boundaries: list[tuple[ApkStage, float, float]] = field(default_factory=list)

    def stage_summaries(self) -> list[StageSummary]:
        """Table-I rows reconstructed from the sampled series.

        Samples are appended in time order (the polling tick plus the
        synchronous boundary snaps), so each stage window is located by
        bisection over the timestamps instead of rescanning every sample
        per stage — O(stages·log n + n) instead of O(stages·n), which
        matters at high poll rates.
        """
        timestamps = [sample.timestamp for sample in self.samples]
        summaries = []
        for stage, start, end in self.boundaries:
            lo = bisect_left(timestamps, start - 1e-9)
            hi = bisect_right(timestamps, end + 1e-9)
            window = self.samples[lo:hi]
            energy = integrate_energy_mah(window)
            comm_kb = (
                (window[-1].total_bytes - window[0].total_bytes) / 1024.0
                if len(window) >= 2
                else 0.0
            )
            summaries.append(
                StageSummary(
                    stage=int(stage),
                    label=stage.label,
                    power_mah=energy,
                    duration_min=(end - start) / 60.0,
                    comm_kb=comm_kb,
                )
            )
        return summaries


class _SampledPhone:
    """One benchmarking phone's registration with the shared sampler ticker."""

    __slots__ = ("phone", "record", "active", "stopped")

    def __init__(self, phone: VirtualPhone, record: BenchmarkRecord) -> None:
        self.phone = phone
        self.record = record
        self.active = True
        self.stopped = Signal(name=f"{phone.serial}.sampler")


class PhoneMgr:
    """Manages the physical devices cluster for one SimDC deployment.

    Parameters
    ----------
    sim / adb / streams:
        Shared simulation plumbing.
    phones:
        The full physical fleet (local + provisioned MSP phones).
    cost_model:
        beta/lambda/stage-window constants.
    apk:
        Training APK installed on participating phones.
    poll_interval:
        Benchmarking sampling period in seconds (1 Hz default).
    on_sample:
        Optional hook invoked per collected sample — the platform wires
        this to the cloud metrics database upload.
    """

    def __init__(
        self,
        sim: Simulator,
        adb: SimulatedAdb,
        phones: list[VirtualPhone],
        cost_model: PhysicalCostModel | None = None,
        apk: TrainingApk | None = None,
        streams: RandomStreams | None = None,
        poll_interval: float = 1.0,
        on_sample: Callable[[DeviceMetricSample], None] | None = None,
        busy_registry: set[str] | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        if poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        self.sim = sim
        self.adb = adb
        self.phones = list(phones)
        self.cost_model = cost_model or PhysicalCostModel()
        self.apk = apk or TrainingApk()
        self.streams = streams or RandomStreams(0)
        self.poll_interval = float(poll_interval)
        self.on_sample = on_sample
        self.tracer = tracer
        self._task_id = "task"
        self.plans: list[PhoneAssignment] = []
        self.computing_phones: dict[str, list[VirtualPhone]] = {}
        self.benchmark_phones: dict[str, list[VirtualPhone]] = {}
        self.benchmark_records: list[BenchmarkRecord] = []
        self.rounds: list[RoundResult] = []
        # Reservation registry; pass a shared set so several PhoneMgr
        # sessions (one per concurrent task) never double-book a phone.
        self._busy: set[str] = busy_registry if busy_registry is not None else set()
        # Wave-schedule plumbing: pooled emulation legs, the shared sampler
        # ticker, and an epoch counter that voids pooled callbacks from a
        # task that was aborted mid-round.
        self._pool = TimeoutPool(sim, name="phone-tier")
        self._sampler_pool = TimeoutPool(sim, name="phone-sampler")
        self._sampler_entries: list[_SampledPhone] = []
        self._sampler_handle: RecurringTimeout | None = None
        self._round_barriers: list[Signal] = []
        self._epoch = 0

    # ------------------------------------------------------------------
    # device selection
    # ------------------------------------------------------------------
    def available_phones(self, grade: str) -> list[VirtualPhone]:
        """Idle phones of a grade, local devices first (cheaper control)."""
        free = [
            phone
            for phone in self.phones
            if phone.spec.grade == grade and phone.serial not in self._busy
        ]
        return sorted(free, key=lambda p: (p.is_msp, p.serial))

    def select_phones(self, grade: str, count: int) -> list[VirtualPhone]:
        """Reserve ``count`` phones of ``grade`` (raises if short)."""
        if count < 0:
            raise ValueError("count must be >= 0")
        candidates = self.available_phones(grade)
        if len(candidates) < count:
            raise RuntimeError(
                f"need {count} {grade}-grade phones, only {len(candidates)} available"
            )
        chosen = candidates[:count]
        for phone in chosen:
            self._busy.add(phone.serial)
        return chosen

    def release_phones(self, phones: list[VirtualPhone]) -> None:
        """Return phones to the pool."""
        for phone in phones:
            self._busy.discard(phone.serial)

    # ------------------------------------------------------------------
    # task lifecycle
    # ------------------------------------------------------------------
    def prepare(self, plans: list[PhoneAssignment], task_id: str = "task") -> Generator:
        """Select phones, install the APK, start the compute framework.

        Computing phones pay the framework-startup lambda here (once per
        task); benchmarking phones stay cold — their five-stage protocol
        starts from a cleared state every round.

        Selection is transactional: if a later plan cannot be satisfied
        (or an APK install fails), every phone already reserved for this
        task is released before the error propagates, so sibling tasks
        sharing the busy registry see no leaked reservations.
        """
        if self.plans:
            raise RuntimeError("PhoneMgr already has a prepared task")
        self._task_id = task_id
        self.plans = list(plans)
        startup_targets: list[tuple[VirtualPhone, str]] = []
        reserved: list[VirtualPhone] = []
        try:
            for plan in self.plans:
                computing = self.select_phones(plan.grade, plan.n_phones) if plan.assignments else []
                reserved.extend(computing)
                benchmarking = self.select_phones(plan.grade, len(plan.benchmarking))
                reserved.extend(benchmarking)
                self.computing_phones[plan.grade] = computing
                self.benchmark_phones[plan.grade] = benchmarking
                for phone in computing + benchmarking:
                    self.adb.install(phone.serial, self.apk)
                startup_targets.extend((phone, plan.grade) for phone in computing)
        except Exception:
            self.release_phones(reserved)
            self.plans = []
            self.computing_phones.clear()
            self.benchmark_phones.clear()
            raise
        # Framework startups launch only after *every* plan has selected
        # and installed — a mid-prepare failure must not leave orphaned
        # startup processes driving phones that were just released.
        startups = [
            self.sim.process(
                self._start_framework(phone, grade),
                name=f"{task_id}.{phone.serial}.startup",
            )
            for phone, grade in startup_targets
        ]
        if startups:
            yield AllOf(startups)

    def _start_framework(self, phone: VirtualPhone, grade: str) -> Generator:
        yield from self._control_latency(phone)
        self.adb.shell(phone.serial, f"pm clear {self.apk.package}")
        self.adb.shell(phone.serial, f"am start -n {self.apk.component}")
        yield Timeout(self.cost_model.startup_duration(grade))

    def _control_latency(self, phone: VirtualPhone) -> Generator:
        if phone.is_msp and self.cost_model.msp_control_latency > 0:
            yield Timeout(self.cost_model.msp_control_latency)

    # ------------------------------------------------------------------
    # round execution
    # ------------------------------------------------------------------
    def run_round(
        self,
        round_index: int,
        global_weights: np.ndarray | None,
        global_bias: float,
        model_bytes: int,
        sink: OutcomeSink | None = None,
    ) -> Generator:
        """Execute one round on computing + benchmarking phones.

        ``sink`` follows the :class:`~repro.cloud.sink.OutcomeSink`
        protocol exactly as on the logical tier: streaming sinks
        (``prefers_blocks = False``) get ``accept`` per device as results
        complete, block-preferring sinks get one ``accept_block`` per
        computing plan at its last completion time, and ``None`` records
        columnar blocks with no delivery (the large phone-tier sweeps).
        Benchmarking phones always stream ``accept`` — their five-stage
        protocol emits mid-round regardless of sink kind.  The returned
        process resolves with a
        :class:`~repro.cluster.runner.RoundResult`.
        """
        check_sink(sink)
        stream = sink is not None and not getattr(sink, "prefers_blocks", True)
        result = RoundResult(round_index=round_index, started_at=self.sim.now)
        epoch = self._epoch

        def collect(outcome: DeviceRoundOutcome) -> None:
            result.outcomes.append(outcome)
            if sink is not None:
                sink.accept(outcome)

        barriers: list = []
        for plan in self.plans:
            for phone, assignment in zip(self.benchmark_phones[plan.grade], plan.benchmarking):
                barriers.append(
                    self.sim.process(
                        self._run_benchmark_phone(
                            phone, assignment, round_index, plan, global_weights, global_bias, model_bytes, collect
                        ),
                        name=f"{phone.serial}.bench{round_index}",
                    )
                )
        if self.plans:
            remaining = len(self.plans)
            computing_done = Signal(name=f"phones.round{round_index}.computing-done")
            self._round_barriers.append(computing_done)

            def plan_done() -> None:
                nonlocal remaining
                remaining -= 1
                if remaining == 0:
                    if computing_done in self._round_barriers:
                        self._round_barriers.remove(computing_done)
                    computing_done.fire()

            for plan in self.plans:
                self._register_batched_plan(
                    plan,
                    round_index,
                    global_weights,
                    global_bias,
                    model_bytes,
                    result,
                    collect if stream else None,
                    None if stream else sink,
                    plan_done,
                )
            barriers.append(computing_done)
        if barriers:
            yield AllOf(barriers)
        result.finished_at = self.sim.now
        # abort() mid-round releases the barrier early; mark the partial
        # result so consumers never mistake it for a completed round.
        result.aborted = epoch != self._epoch
        self.rounds.append(result)
        return result

    def teardown(self) -> Generator:
        """Stop APKs, idle every phone, release reservations."""
        for phones in list(self.computing_phones.values()) + list(self.benchmark_phones.values()):
            for phone in phones:
                yield from self._control_latency(phone)
                self.adb.shell(phone.serial, f"am force-stop {self.apk.package}")
                phone.set_idle()
                self.release_phones([phone])
        self._epoch += 1
        self.plans = []
        self.computing_phones.clear()
        self.benchmark_phones.clear()

    def abort(self) -> None:
        """Synchronous emergency teardown after a task failure.

        Skips control-latency niceties: force-stops any running APK,
        idles every reserved phone and returns it to the pool so sibling
        and queued tasks are unaffected by the crash.  Pending pooled wave
        callbacks from the crashed round are voided via the epoch counter.
        """
        for phones in list(self.computing_phones.values()) + list(self.benchmark_phones.values()):
            for phone in phones:
                if phone.running_pid is not None:
                    self.adb.shell(phone.serial, f"am force-stop {self.apk.package}")
                phone.set_idle()
                self.release_phones([phone])
        self._epoch += 1
        for entry in self._sampler_entries:
            if not entry.stopped.fired:
                entry.stopped.fire(entry.phone.serial)
        self._sampler_entries = []
        if self._sampler_handle is not None:
            self._sampler_handle.cancel()
            self._sampler_handle = None
        # The epoch bump voided the pooled callbacks that would have fired
        # these barriers; release any round process still blocked on one so
        # an aborted task's in-flight round unwinds instead of leaking.
        for barrier in self._round_barriers:
            if not barrier.fired:
                barrier.fire()
        self._round_barriers = []
        self.plans = []
        self.computing_phones.clear()
        self.benchmark_phones.clear()

    # ------------------------------------------------------------------
    # wave-scheduled computing phones
    # ------------------------------------------------------------------
    def _execute_numeric_block(
        self,
        plan: PhoneAssignment,
        round_index: int,
        global_weights: np.ndarray | None,
        global_bias: float,
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Run a numeric plan's flow as one stacked block over every device.

        Devices queued on the plan's phones share grade, backend and the
        round's global model, so the whole plan evaluates as a single
        :class:`BlockOperatorContext` — one stacked weight matrix refined
        by the flow's vectorized operators.  Flow execution consumes no
        simulated time (the math runs eagerly at registration), and each
        device draws from its own named random stream
        (``phone-exec.{device_id}``, one cached generator per device
        consumed round after round), so block grouping cannot perturb
        results.

        Returns ``(update_weights, update_biases, payload_bytes)`` in
        assignment order; the weight array is empty when the flow produces
        no uploads.
        """
        for assignment in plan.assignments:
            if assignment.dataset is None:
                raise RuntimeError(
                    f"device {assignment.device_id} has no dataset but the run is numeric"
                )
        block = BlockOperatorContext(
            device_ids=[a.device_id for a in plan.assignments],
            grade=plan.grade,
            datasets=[a.dataset for a in plan.assignments],
            feature_dim=plan.feature_dim,
            backend=plan.backend,
            global_weights=global_weights,
            global_bias=global_bias,
            round_index=round_index,
            rngs=[self.streams.get(f"phone-exec.{a.device_id}") for a in plan.assignments],
        )
        plan.flow.execute_block(block)
        update_weights = block.outputs.get("update_weights")
        if update_weights is None:
            return np.empty((0, plan.feature_dim)), np.empty(0), 0
        update_biases = block.outputs["update_biases"]
        payload = ModelUpdate.wire_size(plan.feature_dim)
        return update_weights, update_biases, payload

    def _register_batched_plan(
        self,
        plan: PhoneAssignment,
        round_index: int,
        global_weights: np.ndarray | None,
        global_bias: float,
        model_bytes: int,
        result: RoundResult,
        collect: Callable[[DeviceRoundOutcome], None] | None,
        block_sink: OutcomeSink | None,
        plan_done: Callable[[], None],
    ) -> None:
        """Register one plan's whole emulation round in the timeout pool.

        Each computing phone's queue (round-robin: wave ``w`` on phone
        ``p`` holds ``assignments[w * n_phones + p]``) reduces to one
        interleaved cumsum ``((now + push) + training) + upload`` — the
        exact float-add chain of a phone stepping through its queue with
        ``now + delay`` timeouts, so finish times are bit-identical.  Pushes
        vary per device (dataset size), so the chain is per phone rather
        than per plan; phone state (battery, WLAN counters, session
        counts) is replayed from the same precomputed times once the
        phone's queue drains.

        With a ``collect`` callback each phone's sequence drains wave by
        wave through the pool (chronological across phones; ties fire in
        phone order, matching a lock-step per-phone interleave on the
        homogeneous default fleets).  Without one, the entire plan becomes
        a single pooled deadline at its last completion time plus a
        columnar block — no per-device events or objects at all; a
        ``block_sink`` receives that block via ``accept_block`` as it is
        recorded.
        """
        total = len(plan.assignments)
        if total == 0:
            plan_done()
            return
        phones = self.computing_phones[plan.grade]
        n_phones = len(phones)
        duration = self.cost_model.training_duration(plan.grade, plan.flow.total_work)
        update_weights: np.ndarray | None = None
        update_biases: np.ndarray | None = None
        upload_bytes = model_bytes
        if plan.numeric:
            update_weights, update_biases, payload = self._execute_numeric_block(
                plan, round_index, global_weights, global_bias
            )
            if len(update_weights):
                upload_bytes = payload
            else:
                update_weights = update_biases = None
        data_bytes = np.fromiter(
            (
                a.dataset.nbytes() if a.dataset is not None else 64 * a.n_samples
                for a in plan.assignments
            ),
            dtype=np.float64,
            count=total,
        )
        now = self.sim.now
        epoch = self._epoch
        finished = np.empty(total, dtype=np.float64)
        assignments = plan.assignments
        active_phones = [(p, phone) for p, phone in enumerate(phones) if p < total]
        replays: list[tuple[VirtualPhone, np.ndarray]] = []
        for p, phone in active_phones:
            pushes = self.adb.push_durations(phone.serial, data_bytes[p::n_phones] + model_bytes)
            count = len(pushes)
            steps = np.empty(3 * count + 1, dtype=np.float64)
            steps[0] = now
            steps[1::3] = pushes
            steps[2::3] = duration
            steps[3::3] = upload_bytes / phone.spec.network_bandwidth_bps
            times = np.cumsum(steps)
            finished[p::n_phones] = times[3::3]
            replays.append((phone, times[1::3]))

        def replay_phone_states() -> None:
            for phone, starts in replays:
                phone.replay_training_sessions(starts, duration, upload_bytes)

        if collect is None:

            def fire_all() -> None:
                if epoch != self._epoch:
                    return
                block = ColumnarOutcomes(
                    plan=plan,
                    round_index=round_index,
                    payload_bytes=upload_bytes,
                    finished_at=finished,
                    update_weights=update_weights,
                    update_biases=update_biases,
                )
                result.columnar.append(block)
                replay_phone_states()
                if block_sink is not None:
                    block_sink.accept_block(block)
                plan_done()

            self._pool.add_at(float(finished.max()), fire_all)
            return

        pending = len(active_phones)

        def make_fire(p: int, phone: VirtualPhone, starts: np.ndarray, count: int):
            def fire(lo: int, hi: int, _t: float) -> None:
                nonlocal pending
                if epoch != self._epoch:
                    return
                for k in range(lo, hi):
                    position = k * n_phones + p
                    assignment = assignments[position]
                    update = None
                    if update_weights is not None and update_biases is not None:
                        update = package_update(
                            plan,
                            round_index,
                            assignment,
                            update_weights[position],
                            update_biases[position],
                        )
                    collect(
                        DeviceRoundOutcome(
                            device_id=assignment.device_id,
                            grade=assignment.grade,
                            round_index=round_index,
                            n_samples=assignment.n_samples,
                            payload_bytes=upload_bytes,
                            update=update,
                            finished_at=float(finished[position]),
                        )
                    )
                if hi == count:
                    phone.replay_training_sessions(starts, duration, upload_bytes)
                    pending -= 1
                    if pending == 0:
                        plan_done()

            return fire

        for (p, phone), (_, starts) in zip(active_phones, replays):
            count = len(starts)
            self._pool.add_sequence(finished[p::n_phones], make_fire(p, phone, starts, count))

    # ------------------------------------------------------------------
    # benchmarking phones (Table I five-stage protocol)
    # ------------------------------------------------------------------
    def _run_benchmark_phone(
        self,
        phone: VirtualPhone,
        assignment: DeviceAssignment,
        round_index: int,
        plan: PhoneAssignment,
        global_weights: np.ndarray | None,
        global_bias: float,
        model_bytes: int,
        on_outcome: Callable[[DeviceRoundOutcome], None],
    ) -> Generator:
        """The measured five-stage protocol of Table I on one phone."""
        record = BenchmarkRecord(serial=phone.serial, round_index=round_index)
        self.benchmark_records.append(record)
        window = self.cost_model.stage_window
        sampler = self._register_sampled_phone(phone, record)

        def boundary(stage: ApkStage, start: float) -> None:
            # Snap a synchronous sample at the transition so per-stage
            # deltas (energy, communication) are anchored exactly at the
            # boundary instead of at the nearest polling tick.
            self._record_sample(phone, record)
            record.boundaries.append((stage, start, self.sim.now))
            if self.tracer is not None:
                self.tracer.record_bench_stage(
                    self._task_id,
                    phone.serial,
                    assignment.device_id,
                    round_index,
                    stage.label,
                    start,
                    self.sim.now,
                )

        # Stage 1: clear background, APK not running.
        yield from self._control_latency(phone)
        self.adb.shell(phone.serial, f"pm clear {self.apk.package}")
        start = self.sim.now
        yield Timeout(window)
        boundary(ApkStage.NO_APK, start)

        # Stage 2: launch the APK, do not train yet.
        yield from self._control_latency(phone)
        self.adb.shell(phone.serial, f"am start -n {self.apk.component}")
        start = self.sim.now
        yield Timeout(window)
        boundary(ApkStage.APK_LAUNCH, start)

        # Stage 3: training.
        duration = self.cost_model.training_duration(plan.grade, plan.flow.total_work)
        update = None
        payload = model_bytes
        if plan.numeric:
            update = self._execute_flow(assignment, round_index, plan, global_weights, global_bias)
            if update is not None:
                payload = update.payload_bytes()
        start = self.sim.now
        done = phone.start_training(duration, upload_bytes=payload)
        yield done
        boundary(ApkStage.TRAINING, start)
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

        # Stage 4: post-training, APK still in the foreground.
        start = self.sim.now
        yield Timeout(window)
        boundary(ApkStage.POST_TRAINING, start)

        # Stage 5: exit the APK and clear background tasks.
        yield from self._control_latency(phone)
        self.adb.shell(phone.serial, f"am force-stop {self.apk.package}")
        start = self.sim.now
        yield Timeout(window)
        boundary(ApkStage.APK_CLOSURE, start)
        sampler.active = False
        phone.set_idle()
        # Resume at the first tick after deactivation, where the shared
        # ticker fires ``stopped``.
        yield sampler.stopped

    # ------------------------------------------------------------------
    # benchmark sampling (shared ticker)
    # ------------------------------------------------------------------
    def _register_sampled_phone(self, phone: VirtualPhone, record: BenchmarkRecord) -> _SampledPhone:
        """Join the shared sampler ticker (starting it on first use)."""
        entry = _SampledPhone(phone, record)
        self._sampler_entries.append(entry)
        if self._sampler_handle is None:
            # First fire *now*: the per-phone loop's opening sample landed
            # at sampler-process start, the same timestamp as registration.
            self._sampler_handle = self._sampler_pool.add_recurring(
                self.poll_interval, self._sampler_tick, first_at=self.sim.now
            )
        return entry

    def _sampler_tick(self) -> None:
        """One shared tick: sample every active phone, in registration order.

        Deactivated phones get their ``stopped`` signal fired instead — the
        first tick at which the sampler observes the flag.  The ticker cancels itself once nobody is registered,
        so no samples land between rounds (the Fig. 5 no-data windows).
        """
        survivors = []
        for entry in self._sampler_entries:
            if entry.active:
                self._record_sample(entry.phone, entry.record)
                survivors.append(entry)
            else:
                entry.stopped.fire(entry.phone.serial)
        self._sampler_entries = survivors
        if not survivors and self._sampler_handle is not None:
            self._sampler_handle.cancel()
            self._sampler_handle = None

    def _record_sample(self, phone: VirtualPhone, record: BenchmarkRecord) -> None:
        """Collect one sample and forward it to the upload hook.

        Reads the virtual sensors directly (:func:`direct_metric_sample`
        — bit-identical to the ADB text pipeline, including its parse
        round-trips).
        """
        sample = direct_metric_sample(self.sim.now, phone, self.apk.package)
        record.samples.append(sample)
        if self.on_sample is not None:
            self.on_sample(sample)

    def _execute_flow(
        self,
        assignment: DeviceAssignment,
        round_index: int,
        plan: PhoneAssignment,
        global_weights: np.ndarray | None,
        global_bias: float,
    ):
        if assignment.dataset is None:
            raise RuntimeError(
                f"device {assignment.device_id} has no dataset but the run is numeric"
            )
        context = OperatorContext(
            device_id=assignment.device_id,
            grade=plan.grade,
            dataset=assignment.dataset,
            feature_dim=plan.feature_dim,
            backend=plan.backend,
            global_weights=global_weights,
            global_bias=global_bias,
            round_index=round_index,
            rng=self.streams.get(f"phone-exec.{assignment.device_id}"),
        )
        plan.flow.execute(context)
        return context.outputs.get("update")
