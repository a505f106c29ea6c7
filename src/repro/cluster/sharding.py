"""Sharded execution of the logical tier across worker processes.

The single-process :class:`~repro.cluster.runner.LogicalSimulation` fans a
round out over actors that all share one Python event loop; past ~10^5
devices the interpreter, not the model, bounds throughput.  DCSim and
HolDCSim both escape this by partitioning simulated entities across
workers, and the logical tier shards the same way: grade execution plans
are split round-robin into ``n_shards`` sub-plans, each shard runs its own
:class:`~repro.simkernel.Simulator` inside a persistent ``multiprocessing``
worker, and shard results are merged deterministically — sorted by
``(finished_at, device_id)``, so the merge is independent of worker
completion order.

Rounds are globally barriered, exactly like the unsharded tier: after each
round the parent collects every shard's report, advances all shard clocks
to the latest completion time, and — for numeric plans — merges the
shards' FedAvg *partials* (:meth:`repro.ml.fedavg.FedAvgAggregator.merge`)
into the new global model, which it broadcasts with the next round
command.  Each worker folds its own devices' updates into a compact
``(weighted_sum, total_samples)`` partial, so *aggregation* never ships
per-device updates across a process boundary — with
``collect_outcomes=False`` (the scalability mode) nothing per-device
crosses at all, while ``collect_outcomes=True`` additionally pickles the
materialized outcomes (updates included) back for inspection.  Because
the partial fold is exact (see ``repro.ml.fedavg``), the merged weights
are bit-identical to the unsharded aggregation for any shard count.

With ``n_shards=1`` everything runs in-process through the exact same code
path as an unsharded :class:`LogicalSimulation`, producing bit-identical
output; that is the fallback (and the reference for regression tests).
Shard counts that divide the device and actor counts evenly are
bit-identical to each other as well — wave schedules, completion times and
global weights all match the per-device reference model in
:mod:`repro.reference` (enforced by ``tests/test_numeric_equivalence.py``).
"""

from __future__ import annotations

import contextlib
import multiprocessing
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

from repro.cluster.actor import DeviceRoundOutcome
from repro.cluster.cluster import K8sCluster
from repro.cluster.cost import LogicalCostModel
from repro.cluster.resources import NodeSpec
from repro.cluster.runner import GradeExecutionPlan, LogicalSimulation
from repro.ml.fedavg import FedAvgPartial
from repro.simkernel import RandomStreams, Simulator

#: Module-level slot used to hand payloads to forked workers without
#: pickling them through the pipe (the plans of a 100k-device sweep are far
#: bigger than the compact reports coming back).
_FORK_PAYLOADS: list["_ShardPayload"] | None = None

#: Seconds the parent waits for a worker to acknowledge ``stop``.
_SHUTDOWN_TIMEOUT_S = 10.0


@dataclass
class _ShardPayload:
    """Everything one worker needs to host its shard for a whole run."""

    shard_index: int
    n_shards: int
    shard_seed: int
    task_id: str
    node_specs: list[NodeSpec]
    cost_model: LogicalCostModel
    plans: list[GradeExecutionPlan]
    model_bytes: int
    collect_outcomes: bool


@dataclass
class _ShardRoundReport:
    """Compact, picklable summary of one round on one shard."""

    round_index: int
    started_at: float
    finished_at: float
    n_devices: int
    payload_bytes: int
    finished_times: np.ndarray
    outcomes: list[DeviceRoundOutcome] | None


@dataclass
class MergedRound:
    """One logical round merged across every shard."""

    round_index: int
    started_at: float
    finished_at: float
    n_devices: int
    payload_bytes: int
    finished_times: np.ndarray  # sorted ascending
    outcomes: list[DeviceRoundOutcome] | None  # sorted by (finished_at, device_id)

    @property
    def duration(self) -> float:
        """Simulated seconds from earliest shard start to last completion."""
        return self.finished_at - self.started_at


@dataclass
class ShardedRunResult:
    """Deterministically merged result of a sharded logical run.

    For runs with numeric plans, :attr:`weights_history` records the
    merged global model after each round that produced updates, and
    :attr:`global_weights` / :attr:`global_bias` hold the final model.
    """

    n_shards: int
    rounds: list[MergedRound] = field(default_factory=list)
    weights_history: list[tuple[np.ndarray, float]] = field(default_factory=list)
    global_weights: np.ndarray | None = None
    global_bias: float = 0.0

    @property
    def total_devices(self) -> int:
        return sum(r.n_devices for r in self.rounds)

    def metrics(self) -> dict:
        """Order-independent aggregate metrics for regression comparisons.

        Every value is computed from shard-order-independent state (sorted
        completion times), so seeded runs with ``n_shards`` in {1, 2, 4}
        over evenly divisible plans report identical dictionaries.
        """
        times = (
            np.concatenate([r.finished_times for r in self.rounds])
            if self.rounds
            else np.empty(0)
        )
        return {
            "rounds": len(self.rounds),
            "devices": self.total_devices,
            "duration_total": sum(r.duration for r in self.rounds),
            "payload_bytes": sum(r.payload_bytes for r in self.rounds),
            "last_finished_at": max((r.finished_at for r in self.rounds), default=0.0),
            "finished_checksum": float(np.sort(times).sum()),
        }


def partition_plans(plans: list[GradeExecutionPlan], n_shards: int) -> list[list[GradeExecutionPlan]]:
    """Split each plan's actor slots (and their devices) over shards.

    The split is *wave-aligned*: shard ``s`` owns a contiguous range of
    actor slots (``n_actors // n_shards`` each, remainders to the lowest
    shard indices) and takes, from every wave of the round-robin layout,
    exactly the devices those slots would simulate — device at position
    ``p`` runs on actor ``p % n_actors`` in wave ``p // n_actors``, on
    whichever shard owns that actor slot.  A shard's local wave ``w`` is
    therefore the global wave ``w``, which keeps every device's completion
    time bit-identical to the unsharded schedule; a contiguous device
    split would instead compress each shard's devices into earlier waves
    and reshuffle who finishes when.  Plans left without actor slots (or
    devices) on a shard are dropped from that shard.
    """
    if n_shards <= 0:
        raise ValueError("n_shards must be positive")
    shards: list[list[GradeExecutionPlan]] = [[] for _ in range(n_shards)]
    for plan in plans:
        n_devices = len(plan.assignments)
        n_actors = plan.n_actors
        slot_lo = 0
        for s in range(n_shards):
            slots = n_actors // n_shards + (1 if s < n_actors % n_shards else 0)
            slot_hi = slot_lo + slots
            if slots == 0:
                continue
            assignments = [
                assignment
                for wave_start in range(slot_lo, n_devices, n_actors)
                for assignment in plan.assignments[wave_start : wave_start - slot_lo + slot_hi]
            ]
            slot_lo = slot_hi
            if not assignments:
                continue
            shards[s].append(replace(plan, assignments=assignments, n_actors=slots))
    return shards


class _ShardSession:
    """One shard's simulator, driven round-by-round under parent barriers."""

    def __init__(self, payload: _ShardPayload) -> None:
        self.payload = payload
        self.sim = Simulator()
        self.logical = LogicalSimulation(
            self.sim,
            K8sCluster(payload.node_specs),
            payload.cost_model,
            # The master seed is shared by every shard: all device-level
            # streams are name-keyed, so identical seeds are what keeps a
            # device's randomness independent of the shard hosting it.
            streams=RandomStreams(payload.shard_seed),
        )
        self.sim.process(
            self.logical.prepare(payload.plans, task_id=payload.task_id),
            name=f"{payload.task_id}.prepare",
        )
        self.sim.run(batch=True)
        self.ready_at = self.sim.now

    def run_round(
        self,
        round_index: int,
        barrier: float,
        global_weights: np.ndarray | None,
        global_bias: float,
    ) -> tuple[_ShardRoundReport, FedAvgPartial]:
        """Advance the shard clock to ``barrier``, then run one round.

        ``run(until=barrier)`` assigns the clock exactly (no float
        accumulation), so wave schedules start from the same timestamp the
        unsharded tier would use and completion times stay bit-identical.
        """
        if barrier > self.sim.now:
            self.sim.run(until=barrier, batch=True)
        self.sim.process(
            self.logical.run_round(
                round_index, global_weights, global_bias, self.payload.model_bytes, None
            ),
            name=f"{self.payload.task_id}.round{round_index}",
        )
        self.sim.run(batch=True)
        result = self.logical.rounds[-1]
        weights, biases, n_samples = result.fedavg_inputs()
        partial = FedAvgPartial.from_arrays(weights, biases, n_samples)
        outcomes = result.all_outcomes() if self.payload.collect_outcomes else None
        report = _ShardRoundReport(
            round_index=result.round_index,
            started_at=result.started_at,
            finished_at=result.finished_at,
            n_devices=result.n_devices,
            payload_bytes=result.payload_bytes_total(),
            finished_times=result.finished_times(),
            outcomes=outcomes,
        )
        return report, partial

    def close(self) -> None:
        self.logical.teardown()


def _shard_worker_main(conn, payload_index: int, payload: _ShardPayload | None) -> None:
    """Worker entry point: serve rounds over the pipe until ``stop``.

    ``payload`` is None under ``fork`` (read from inherited memory via
    ``_FORK_PAYLOADS``) and pickled through the process arguments under
    ``spawn``.
    """
    try:
        if payload is None:
            assert _FORK_PAYLOADS is not None, "fork payload slot not populated"
            payload = _FORK_PAYLOADS[payload_index]
        session = _ShardSession(payload)
        conn.send(("ready", session.ready_at))
        while True:
            message = conn.recv()
            if message[0] == "stop":
                break
            _, round_index, barrier, global_weights, global_bias = message
            conn.send(("round", *session.run_round(round_index, barrier, global_weights, global_bias)))
        session.close()
        conn.send(("stopped",))
    except Exception:  # pragma: no cover - exercised only on worker crashes
        with contextlib.suppress(BrokenPipeError, OSError):
            conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


class _InProcessShards:
    """The ``n_shards=1`` backend: one session, no processes, no pickling."""

    def __init__(self, payloads: list[_ShardPayload]) -> None:
        self.sessions = [_ShardSession(payload) for payload in payloads]

    def ready_times(self) -> list[float]:
        return [session.ready_at for session in self.sessions]

    def run_round(
        self,
        round_index: int,
        barrier: float,
        global_weights: np.ndarray | None,
        global_bias: float,
    ) -> list[tuple[_ShardRoundReport, FedAvgPartial]]:
        return [
            session.run_round(round_index, barrier, global_weights, global_bias)
            for session in self.sessions
        ]

    def close(self) -> None:
        for session in self.sessions:
            session.close()


class _WorkerShards:
    """Persistent worker processes, one per shard, spoken to over pipes."""

    def __init__(self, payloads: list[_ShardPayload]) -> None:
        global _FORK_PAYLOADS
        methods = multiprocessing.get_all_start_methods()
        fork = "fork" in methods
        context = multiprocessing.get_context("fork" if fork else "spawn")
        self.connections = []
        self.processes = []
        if fork:
            _FORK_PAYLOADS = payloads
        try:
            for index, payload in enumerate(payloads):
                parent_conn, child_conn = context.Pipe()
                process = context.Process(
                    target=_shard_worker_main,
                    args=(child_conn, index, None if fork else payload),
                    daemon=True,
                )
                process.start()
                child_conn.close()
                self.connections.append(parent_conn)
                self.processes.append(process)
        finally:
            if fork:
                _FORK_PAYLOADS = None
        self._ready = [self._receive(conn) for conn in self.connections]

    @staticmethod
    def _receive(conn):
        try:
            message = conn.recv()
        except EOFError as exc:
            raise RuntimeError(
                "shard worker exited without reporting (killed or crashed hard)"
            ) from exc
        if message[0] == "error":
            raise RuntimeError(f"shard worker failed:\n{message[1]}")
        return message[1:]

    def ready_times(self) -> list[float]:
        return [ready[0] for ready in self._ready]

    def run_round(
        self,
        round_index: int,
        barrier: float,
        global_weights: np.ndarray | None,
        global_bias: float,
    ) -> list[tuple[_ShardRoundReport, FedAvgPartial]]:
        for conn in self.connections:
            conn.send(("round", round_index, barrier, global_weights, global_bias))
        return [tuple(self._receive(conn)) for conn in self.connections]

    def close(self) -> None:
        for conn in self.connections:
            with contextlib.suppress(BrokenPipeError, OSError):
                conn.send(("stop",))
        for process, conn in zip(self.processes, self.connections):
            with contextlib.suppress(EOFError, OSError):
                if conn.poll(_SHUTDOWN_TIMEOUT_S):
                    conn.recv()  # "stopped" acknowledgement
            conn.close()
            process.join(timeout=_SHUTDOWN_TIMEOUT_S)
            if process.is_alive():  # pragma: no cover - defensive cleanup
                process.terminate()
                process.join(timeout=_SHUTDOWN_TIMEOUT_S)


class ShardedLogicalSimulation:
    """Drives grade execution plans over ``n_shards`` independent workers.

    Parameters
    ----------
    node_specs:
        The whole cluster's nodes.  Capacity for the combined plans is
        validated globally up front; each shard then places its own
        sub-group against the shared (simulated) node list.
    cost_model:
        Shared simulated-time cost constants.
    n_shards:
        Worker count.  ``1`` (default) runs in-process with no
        multiprocessing involved — the bit-identical reference path.
    seed:
        Master seed, shared by every shard (device-level random streams
        are name-keyed, so sharing the seed is what makes results
        independent of the shard layout).
    """

    def __init__(
        self,
        node_specs: list[NodeSpec],
        cost_model: LogicalCostModel | None = None,
        n_shards: int = 1,
        seed: int = 0,
        task_id: str = "task",
    ) -> None:
        if n_shards <= 0:
            raise ValueError("n_shards must be positive")
        self.node_specs = list(node_specs)
        self.cost_model = cost_model or LogicalCostModel()
        self.n_shards = n_shards
        self.seed = int(seed)
        self.task_id = task_id

    def _payloads(
        self,
        plans: list[GradeExecutionPlan],
        model_bytes: int,
        collect_outcomes: bool,
    ) -> list[_ShardPayload]:
        shard_plans = partition_plans(plans, self.n_shards)
        payloads = []
        for s in range(self.n_shards):
            payloads.append(
                _ShardPayload(
                    shard_index=s,
                    n_shards=self.n_shards,
                    shard_seed=self.seed,
                    task_id=self.task_id if self.n_shards == 1 else f"{self.task_id}.shard{s}",
                    # Workers share the full (simulated) node list; capacity
                    # for the combined plans is validated globally before
                    # dispatch, and placement within a shard never affects
                    # simulated timing.
                    node_specs=self.node_specs,
                    cost_model=self.cost_model,
                    plans=shard_plans[s],
                    model_bytes=model_bytes,
                    collect_outcomes=collect_outcomes,
                )
            )
        return payloads

    def run_rounds(
        self,
        plans: list[GradeExecutionPlan],
        n_rounds: int = 1,
        model_bytes: int = 0,
        global_weights: np.ndarray | None = None,
        global_bias: float = 0.0,
        collect_outcomes: bool = True,
    ) -> ShardedRunResult:
        """Execute ``n_rounds`` across all shards and merge the reports.

        Rounds are globally barriered: every shard starts round ``r + 1``
        at the latest round-``r`` completion time across the whole run,
        exactly like the unsharded tier's end-of-round ``AllOf``.  When the
        plans include numeric (ML-executing) ones, the parent merges each
        round's per-shard FedAvg partials and broadcasts the new global
        weights with the next round — sharded multi-round runs therefore
        train, not just replay, and the resulting models are bit-identical
        to the unsharded path.

        ``collect_outcomes=False`` keeps the per-shard reports columnar
        (completion-time arrays plus counters) — the right mode for the
        scalability sweeps, where materializing and pickling 10^5 outcome
        objects would dominate the run.
        """
        if n_rounds <= 0:
            raise ValueError("n_rounds must be positive")
        self._check_capacity(plans)
        payloads = self._payloads(plans, model_bytes, collect_outcomes)
        backend_cls = _InProcessShards if self.n_shards == 1 else _WorkerShards
        shards = backend_cls(payloads)
        result = ShardedRunResult(n_shards=self.n_shards)
        weights = None if global_weights is None else np.asarray(global_weights, dtype=np.float64)
        bias = float(global_bias)
        shard_reports: list[list[_ShardRoundReport]] = [[] for _ in payloads]
        try:
            barrier = max(shards.ready_times())
            for round_index in range(1, n_rounds + 1):
                round_outputs = shards.run_round(round_index, barrier, weights, bias)
                partials = []
                for shard, (report, partial) in enumerate(round_outputs):
                    shard_reports[shard].append(report)
                    partials.append(partial)
                barrier = max(report.finished_at for report, _ in round_outputs)
                merged_partial = FedAvgPartial.merge(partials)
                if merged_partial.n_updates:
                    weights, bias = merged_partial.finalize()
                    result.weights_history.append((weights, bias))
                    result.global_weights = weights
                    result.global_bias = bias
        finally:
            shards.close()
        self._merge_into(result, shard_reports)
        return result

    def _check_capacity(self, plans: list[GradeExecutionPlan]) -> None:
        """Validate the *combined* plans against the *whole* cluster.

        Shards allocate their placement groups independently, so the global
        gang-allocation check the unsharded path performs inside
        ``prepare`` has to happen here instead.
        """
        bundles = [plan.bundle for plan in plans for _ in range(plan.n_actors)]
        if bundles and not K8sCluster(self.node_specs).can_allocate(bundles):
            raise RuntimeError(
                f"cluster cannot host {len(bundles)} bundles for task {self.task_id!r}"
            )

    @staticmethod
    def _merge_into(
        result: ShardedRunResult, shard_reports: list[list[_ShardRoundReport]]
    ) -> None:
        n_rounds = max((len(reports) for reports in shard_reports), default=0)
        for round_pos in range(n_rounds):
            per_shard = [reports[round_pos] for reports in shard_reports if len(reports) > round_pos]
            times = np.sort(np.concatenate([r.finished_times for r in per_shard]))
            outcomes: list[DeviceRoundOutcome] | None = None
            if all(r.outcomes is not None for r in per_shard):
                outcomes = sorted(
                    (o for r in per_shard for o in r.outcomes),
                    key=lambda o: (o.finished_at, o.device_id),
                )
            result.rounds.append(
                MergedRound(
                    round_index=per_shard[0].round_index,
                    started_at=min(r.started_at for r in per_shard),
                    finished_at=max(r.finished_at for r in per_shard),
                    n_devices=sum(r.n_devices for r in per_shard),
                    payload_bytes=sum(r.payload_bytes for r in per_shard),
                    finished_times=times,
                    outcomes=outcomes,
                )
            )
