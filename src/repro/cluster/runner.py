"""The Ray Runner: master-node orchestration of the logical tier.

"The master node (Ray Runner) is responsible for data downloading,
distribution, and the configuration of runtime parameters for the simulated
devices" (§IV-A).  :class:`LogicalSimulation` wraps the whole tier: it
reserves a placement group on the cluster, starts actors, stages data, and
fans rounds out across the actors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable, Generator

import numpy as np

from repro.cloud.sink import OutcomeSink, check_sink
from repro.cluster.actor import DeviceAssignment, DeviceRoundOutcome, SimActor
from repro.cluster.cluster import K8sCluster
from repro.cluster.cost import LogicalCostModel
from repro.cluster.placement import PlacementGroup, PlacementStrategy
from repro.cluster.resources import ResourceBundle
from repro.ml.backends import SERVER_BACKEND, NumericBackend
from repro.ml.fedavg import ModelUpdate
from repro.ml.operators import BlockOperatorContext, OperatorFlow
from repro.simkernel import AllOf, RandomStreams, Signal, Simulator, Timeout, TimeoutPool


@dataclass
class GradeExecutionPlan:
    """Everything the logical tier needs to simulate one device grade.

    Attributes
    ----------
    grade:
        Grade label ("High"/"Low" in the paper's experiments).
    assignments:
        The devices of this grade allocated to the logical tier.
    n_actors:
        Concurrent device slots, i.e. requested unit bundles over units
        per device (``f_i / k_i``).
    bundle:
        Composite resource bundle backing each actor.
    flow:
        The task's operator flow.
    feature_dim:
        Model dimensionality for numeric runs.
    backend:
        Numeric backend of this tier (server-side by default).
    numeric:
        When false, flows advance simulated time but skip the ML math —
        used for the 100k-device scalability sweeps.
    """

    grade: str
    assignments: list[DeviceAssignment]
    n_actors: int
    bundle: ResourceBundle
    flow: OperatorFlow
    feature_dim: int = 4096
    backend: NumericBackend = SERVER_BACKEND
    numeric: bool = True

    def __post_init__(self) -> None:
        if self.n_actors <= 0:
            raise ValueError("n_actors must be positive")
        # One construction-time pass: validate grade homogeneity (the
        # wave schedule relies on it to broadcast durations without
        # touching assignment objects) and pre-sum staged bytes so sharded
        # workers never iterate the device list either.
        total_bytes = 0
        for assignment in self.assignments:
            if assignment.grade != self.grade:
                raise ValueError(
                    f"assignment {assignment.device_id!r} has grade "
                    f"{assignment.grade!r} but the plan is for grade {self.grade!r}"
                )
            total_bytes += (
                assignment.dataset.nbytes()
                if assignment.dataset is not None
                else 64 * assignment.n_samples
            )
        self._dataset_bytes = total_bytes

    def dataset_bytes(self) -> int:
        """Total bytes of local data staged for this grade (precomputed)."""
        return self._dataset_bytes


def package_update(
    plan: GradeExecutionPlan,
    round_index: int,
    assignment: DeviceAssignment,
    weights_row: np.ndarray,
    bias: float,
) -> ModelUpdate:
    """Package one device's trained row as a :class:`ModelUpdate`."""
    return ModelUpdate(
        device_id=assignment.device_id,
        round_index=round_index,
        weights=weights_row.copy(),
        bias=float(bias),
        n_samples=assignment.n_samples,
        metadata={"grade": plan.grade, "backend": plan.backend.name},
    )


@dataclass
class ColumnarOutcomes:
    """Outcomes of one plan's round stored as arrays, not objects.

    The wave schedule records a whole plan's round as one block:
    ``finished_at[pos]`` is the upload-completion time of the device
    ``plan.assignments[pos]`` (emission position equals assignment index
    under the wave-major round-robin layout).  Numeric plans additionally
    carry the stacked model updates (``update_weights[pos]`` /
    ``update_biases[pos]``), which is what per-shard FedAvg partials fold
    without ever constructing :class:`~repro.ml.fedavg.ModelUpdate`
    objects.  Blocks materialize to :class:`DeviceRoundOutcome` objects
    lazily — the 100k scalability sweeps never pay for 100k dataclass
    constructions.
    """

    plan: GradeExecutionPlan
    round_index: int
    payload_bytes: int
    finished_at: np.ndarray
    update_weights: np.ndarray | None = None  # (n_devices, feature_dim)
    update_biases: np.ndarray | None = None  # (n_devices,)

    def __len__(self) -> int:
        return len(self.finished_at)

    def n_samples_array(self) -> np.ndarray:
        """Per-device FedAvg sample counts, in block (assignment) order."""
        return np.array([a.n_samples for a in self.plan.assignments], dtype=np.int64)

    def update_at(self, position: int) -> ModelUpdate | None:
        """Materialize one device's :class:`ModelUpdate` (``None`` if time-only).

        This is what lazy block-storage views call when a single stored
        payload is actually read — the block path never builds the other
        ``n - 1`` objects.
        """
        if self.update_weights is None or self.update_biases is None:
            return None
        return package_update(
            self.plan,
            self.round_index,
            self.plan.assignments[position],
            self.update_weights[position],
            self.update_biases[position],
        )

    def materialize(self) -> list[DeviceRoundOutcome]:
        """Build the outcome objects in block (assignment) order.

        For logical-tier plans this is also chronological (one shared wave
        clock); phone-tier plans stage per-device push bytes, so completion
        times across phones need not be sorted — sort on ``finished_at`` if
        chronology matters.
        """
        return [
            DeviceRoundOutcome(
                device_id=assignment.device_id,
                grade=assignment.grade,
                round_index=self.round_index,
                n_samples=assignment.n_samples,
                payload_bytes=self.payload_bytes,
                update=self.update_at(position),
                finished_at=float(time),
            )
            for position, (assignment, time) in enumerate(
                zip(self.plan.assignments, self.finished_at)
            )
        ]


@dataclass
class RoundResult:
    """Summary of one logical-tier round.

    Outcomes live either in :attr:`outcomes` (eagerly built objects, when
    the sink asked for per-device streaming) or in :attr:`columnar`
    blocks.  :meth:`all_outcomes` unifies the two.
    """

    round_index: int
    outcomes: list[DeviceRoundOutcome] = field(default_factory=list)
    columnar: list[ColumnarOutcomes] = field(default_factory=list)
    started_at: float = 0.0
    finished_at: float = 0.0
    #: True when the owning tier was aborted mid-round: the recorded
    #: outcomes are the partial prefix collected before the abort.
    aborted: bool = False

    @property
    def duration(self) -> float:
        """Simulated seconds from round start to last device completion."""
        return self.finished_at - self.started_at

    @property
    def n_devices(self) -> int:
        """Devices that completed the round."""
        return len(self.outcomes) + sum(len(block) for block in self.columnar)

    def all_outcomes(self) -> list[DeviceRoundOutcome]:
        """Eager outcomes followed by materialized columnar blocks.

        Eager outcomes are in emission (chronological) order; columnar
        blocks are in assignment order, which is chronological for
        logical-tier plans but not necessarily for phone-tier plans
        (per-device push bytes de-sync the phones).  Across mixed
        eager/columnar plans the groups are concatenated rather than
        merged — sort on ``finished_at`` when chronology matters.
        """
        result = list(self.outcomes)
        for block in self.columnar:
            result.extend(block.materialize())
        return result

    def finished_times(self) -> np.ndarray:
        """All completion times, unsorted, without materializing objects."""
        parts = [np.array([o.finished_at for o in self.outcomes], dtype=np.float64)]
        parts.extend(block.finished_at for block in self.columnar)
        return np.concatenate(parts)

    def payload_bytes_total(self) -> int:
        """Bytes uploaded this round, without materializing columnar blocks.

        Eager outcomes carry their true per-device payload (numeric runs
        report the model update's size); columnar blocks are
        grade-homogeneous, so every device uploaded the block's fixed
        payload (the model-update size for numeric plans).
        """
        total = sum(o.payload_bytes for o in self.outcomes)
        total += sum(len(block) * block.payload_bytes for block in self.columnar)
        return total

    def fedavg_inputs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Columnar ``(weights, biases, n_samples)`` of every numeric update.

        Concatenates eager outcomes' updates with numeric columnar blocks'
        stacked arrays — the input
        :meth:`repro.ml.fedavg.FedAvgPartial.from_arrays` folds without
        materializing update objects.  Returns empty arrays when the round
        produced no updates.
        """
        weight_parts: list[np.ndarray] = []
        bias_parts: list[np.ndarray] = []
        sample_parts: list[np.ndarray] = []
        eager = [o.update for o in self.outcomes if o.update is not None]
        if eager:
            weight_parts.append(np.stack([u.weights for u in eager]))
            bias_parts.append(np.array([u.bias for u in eager], dtype=np.float64))
            sample_parts.append(np.array([u.n_samples for u in eager], dtype=np.int64))
        for block in self.columnar:
            if block.update_weights is not None and block.update_biases is not None:
                weight_parts.append(block.update_weights)
                bias_parts.append(block.update_biases)
                sample_parts.append(block.n_samples_array())
        if not weight_parts:
            empty = np.empty(0, dtype=np.float64)
            return np.empty((0, 0), dtype=np.float64), empty, np.empty(0, dtype=np.int64)
        return (
            np.concatenate(weight_parts),
            np.concatenate(bias_parts),
            np.concatenate(sample_parts),
        )


class LogicalSimulation:
    """Facade over cluster + actors for one task's logical tier.

    Usage: ``prepare`` (allocates resources, starts actors, stages data)
    then ``run_round`` once per collaboration round, then ``teardown``.
    All three return process generators to be driven by the simulator.
    """

    def __init__(
        self,
        sim: Simulator,
        cluster: K8sCluster,
        cost_model: LogicalCostModel | None = None,
        streams: RandomStreams | None = None,
    ) -> None:
        self.sim = sim
        self.cluster = cluster
        self.cost_model = cost_model or LogicalCostModel()
        self.streams = streams or RandomStreams(0)
        self.plans: list[GradeExecutionPlan] = []
        self.actors: dict[str, list[SimActor]] = {}
        self.placement_group: PlacementGroup | None = None
        self.rounds: list[RoundResult] = []
        self._pool = TimeoutPool(sim, name="logical-tier")

    def prepare(self, plans: list[GradeExecutionPlan], task_id: str = "task") -> Generator:
        """Allocate the placement group, start actors, stage datasets.

        Raises ``RuntimeError`` if the cluster cannot host the requested
        bundles — the Task Scheduler should have checked capacity first.
        """
        if self.placement_group is not None:
            raise RuntimeError("LogicalSimulation is already prepared")
        self.plans = list(plans)
        bundles: list[ResourceBundle] = []
        for plan in self.plans:
            bundles.extend([plan.bundle] * plan.n_actors)
        if not bundles:
            return
        group = self.cluster.allocate(bundles, PlacementStrategy.PACK)
        if group is None:
            raise RuntimeError(
                f"cluster cannot host {len(bundles)} bundles for task {task_id!r}"
            )
        self.placement_group = group

        yield Timeout(self.cost_model.runner_setup)

        startups = []
        for plan in self.plans:
            actors = [
                SimActor(
                    self.sim,
                    actor_id=f"{task_id}.{plan.grade}.{i}",
                    grade=plan.grade,
                    cost_model=self.cost_model,
                )
                for i in range(plan.n_actors)
            ]
            self.actors[plan.grade] = actors
            per_actor_bytes = plan.dataset_bytes() // max(1, plan.n_actors)
            for actor in actors:
                startups.append(
                    self.sim.process(
                        self._start_actor(actor, per_actor_bytes),
                        name=f"{actor.actor_id}.startup",
                    )
                )
        yield AllOf(startups)

    def _start_actor(self, actor: SimActor, data_bytes: int) -> Generator:
        yield self.sim.process(actor.startup(), name=f"{actor.actor_id}.boot")
        yield self.sim.process(actor.download(data_bytes), name=f"{actor.actor_id}.data-dl")

    def run_round(
        self,
        round_index: int,
        global_weights: np.ndarray | None,
        global_bias: float,
        model_bytes: int,
        sink: OutcomeSink | None = None,
    ) -> Generator:
        """Execute one round across every grade's plans; barrier at end.

        Every plan runs on the wave schedule
        (:meth:`_register_batched_plan`).  ``sink`` receives results
        through the :class:`~repro.cloud.sink.OutcomeSink` protocol, at
        the granularity its ``prefers_blocks`` attribute asks for:

        * block-preferring sinks (the default, e.g.
          :class:`~repro.cloud.sink.CloudIngestSink` without DeviceFlow)
          get one ``accept_block`` per plan at its last completion time;
        * streaming sinks (``prefers_blocks = False``, e.g.
          :class:`~repro.cloud.sink.CallbackSink`) get ``accept`` per
          device *as results complete* — what feeds DeviceFlow mid-round;
        * ``sink=None`` records columnar blocks with no delivery at all
          (the 100k-device sweeps: no per-device objects or events).

        The returned process resolves with a :class:`RoundResult` once
        every device has finished.
        """
        if self.placement_group is None and self.plans:
            raise RuntimeError("call prepare() before run_round()")
        check_sink(sink)
        stream = sink is not None and not getattr(sink, "prefers_blocks", True)
        result = RoundResult(round_index=round_index, started_at=self.sim.now)

        def collect(outcome: DeviceRoundOutcome) -> None:
            result.outcomes.append(outcome)
            sink.accept(outcome)

        if self.plans:
            remaining = len(self.plans)
            round_done = Signal(name=f"round{round_index}.done")

            def plan_done() -> None:
                nonlocal remaining
                remaining -= 1
                if remaining == 0:
                    round_done.fire()

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
            yield round_done
        result.finished_at = self.sim.now
        self.rounds.append(result)
        return result

    def _execute_numeric_waves(
        self,
        plan: GradeExecutionPlan,
        round_index: int,
        global_weights: np.ndarray | None,
        global_bias: float,
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Run a numeric plan's flow as stacked per-wave blocks.

        Wave ``w`` executes devices ``assignments[w * n_actors : (w + 1) *
        n_actors]`` as one :class:`BlockOperatorContext` — a stacked
        ``(wave_size, feature_dim)`` weight matrix refined by the flow's
        vectorized operators.  Flow execution consumes no simulated time
        (the math runs eagerly at registration), and each device draws
        from its own named random stream, so wave grouping cannot perturb
        results.

        Returns ``(update_weights, update_biases, payload_bytes)`` stacked
        over the whole plan in assignment order; the weight array is empty
        when the flow produces no uploads, and ``payload_bytes`` is then
        the broadcast model size.
        """
        if global_weights is None:
            raise RuntimeError(
                f"device {plan.assignments[0].device_id}: global model was not "
                "staged before the flow ran"
            )
        for assignment in plan.assignments:
            if assignment.dataset is None:
                raise RuntimeError(
                    f"device {assignment.device_id} has no dataset but the run is numeric"
                )
        total = len(plan.assignments)
        n_actors = len(self.actors[plan.grade])
        update_weights = np.empty((total, plan.feature_dim), dtype=np.float64)
        update_biases = np.empty(total, dtype=np.float64)
        has_updates = True
        payload = 0
        for start in range(0, total, n_actors):
            wave = plan.assignments[start : start + n_actors]
            block = BlockOperatorContext(
                device_ids=[a.device_id for a in wave],
                grade=plan.grade,
                datasets=[a.dataset for a in wave],
                feature_dim=plan.feature_dim,
                backend=plan.backend,
                global_weights=global_weights,
                global_bias=global_bias,
                round_index=round_index,
                rngs=[self.streams.get(f"device.{a.device_id}.sgd") for a in wave],
            )
            plan.flow.execute_block(block)
            wave_weights = block.outputs.get("update_weights")
            if wave_weights is None:
                has_updates = False
                continue
            update_weights[start : start + len(wave)] = wave_weights
            update_biases[start : start + len(wave)] = block.outputs["update_biases"]
            if payload == 0:
                payload = ModelUpdate.wire_size(plan.feature_dim)
        if not has_updates:
            return np.empty((0, plan.feature_dim)), np.empty(0), 0
        return update_weights, update_biases, payload

    def _register_batched_plan(
        self,
        plan: GradeExecutionPlan,
        round_index: int,
        global_weights: np.ndarray | None,
        global_bias: float,
        model_bytes: int,
        result: RoundResult,
        collect: Callable[[DeviceRoundOutcome], None] | None,
        block_sink: OutcomeSink | None,
        plan_done: Callable[[], None],
    ) -> None:
        """Register one batched plan's whole round in the timeout pool.

        Plans are grade-homogeneous (enforced at construction), so every
        actor advances through identical waves: the whole round reduces to
        ONE per-wave completion-time vector (the interleaved cumsum
        ``((now + model_dl) + duration) + transfer`` chain, bit-identical
        to an actor stepping through its queue one timeout at a time)
        broadcast over the actors active in each wave.  Emission position maps to assignment index by identity —
        wave ``w``, actor ``a`` holds ``assignments[w * n_actors + a]``
        under the round-robin partition.

        Numeric plans run their ML round here as well: client updates are
        evaluated in stacked per-wave blocks
        (:meth:`_execute_numeric_waves`) and the result-upload leg of the
        cumsum uses the model-update payload
        (``transfer_duration(update.payload_bytes())`` per device).

        With a ``collect`` callback the sequence drains wave by wave,
        emitting outcomes in completion order; without one the
        entire plan becomes a single pooled deadline at its last completion
        time plus a columnar block — no per-device objects, no per-device
        events, and (in sharded workers) no per-device Python at all beyond
        the vectorized wave math.  A ``block_sink`` receives that block via
        ``accept_block`` the moment it is recorded (the cloud ingests the
        whole round in one fold).
        """
        total = len(plan.assignments)
        if total == 0:
            plan_done()
            return
        n_actors = len(self.actors[plan.grade])
        cost = self.cost_model
        duration = cost.device_round_duration(plan.grade, plan.flow.total_work)
        update_weights: np.ndarray | None = None
        update_biases: np.ndarray | None = None
        upload_bytes = model_bytes
        if plan.numeric:
            update_weights, update_biases, payload = self._execute_numeric_waves(
                plan, round_index, global_weights, global_bias
            )
            if len(update_weights):
                upload_bytes = payload
            else:
                update_weights = update_biases = None
        waves = -(-total // n_actors)
        steps = np.empty(2 * waves + 2, dtype=np.float64)
        steps[0] = self.sim.now
        steps[1] = cost.transfer_duration(model_bytes)  # per-round model download
        steps[2::2] = duration
        steps[3::2] = cost.transfer_duration(upload_bytes)  # per-device result upload
        wave_times = np.cumsum(steps)[3::2]
        remainder = total % n_actors
        counts = np.full(waves, n_actors, dtype=np.int64)
        if remainder:
            counts[-1] = remainder
        merged = np.repeat(wave_times, counts)

        if collect is None:
            def fire_all() -> None:
                block = ColumnarOutcomes(
                    plan=plan,
                    round_index=round_index,
                    payload_bytes=upload_bytes,
                    finished_at=merged,
                    update_weights=update_weights,
                    update_biases=update_biases,
                )
                result.columnar.append(block)
                if block_sink is not None:
                    block_sink.accept_block(block)
                plan_done()

            self._pool.add_at(float(merged[-1]), fire_all)
            return

        assignments = plan.assignments

        def fire(lo: int, hi: int, _t: float) -> None:
            for pos in range(lo, hi):
                assignment = assignments[pos]
                update = None
                if update_weights is not None and update_biases is not None:
                    update = package_update(
                        plan, round_index, assignment, update_weights[pos], update_biases[pos]
                    )
                collect(
                    DeviceRoundOutcome(
                        device_id=assignment.device_id,
                        grade=assignment.grade,
                        round_index=round_index,
                        n_samples=assignment.n_samples,
                        payload_bytes=upload_bytes,
                        update=update,
                        finished_at=float(merged[pos]),
                    )
                )
            if hi == total:
                plan_done()

        self._pool.add_sequence(merged, fire)

    def teardown(self) -> None:
        """Release the placement group back to the cluster."""
        if self.placement_group is not None:
            self.cluster.release(self.placement_group)
            self.placement_group = None
        self.actors.clear()
