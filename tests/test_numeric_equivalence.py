"""Differential suite: every numeric execution strategy is bit-identical.

A numeric (ML-executing) plan runs on the wave schedule, unsharded or
sharded over 1, 2 or 4 workers; the per-device reference model
(:mod:`repro.reference`) is the oracle.  All of them must produce
*bit-identical* global weights, per-device outcomes (update
weights/biases, sample counts, payloads) and completion times for the
same seed, across multiple rounds with FedAvg feedback between them.
"""

import numpy as np
import pytest

from repro.cloud import CallbackSink
from repro.cluster import (
    DeviceAssignment,
    GradeExecutionPlan,
    K8sCluster,
    LogicalCostModel,
    LogicalSimulation,
    NodeSpec,
    ResourceBundle,
    ShardedLogicalSimulation,
)
from repro.data.avazu import DeviceDataset
from repro.ml import fedavg, standard_fl_flow
from repro.reference import ReferenceLogicalSimulation
from repro.simkernel import RandomStreams, Simulator

NODES = [NodeSpec(cpus=10, memory_gb=20)] * 4
COST = LogicalCostModel(alpha={"Std": 11.0, "Bulk": 7.0}, actor_startup=0.5, runner_setup=4.0)
FEATURE_DIM = 32
MODEL_BYTES = 4096
N_DEVICES = 24  # divides evenly by 1, 2 and 4 shards (8 actors -> 3 waves)
N_ACTORS = 8
N_ROUNDS = 3
SEED = 5


def make_numeric_plan(n_devices: int = N_DEVICES, n_actors: int = N_ACTORS) -> GradeExecutionPlan:
    rng = np.random.default_rng(99)
    assignments = []
    for i in range(n_devices):
        features = rng.integers(0, FEATURE_DIM, size=(12, 4)).astype(np.int32)
        labels = rng.integers(0, 2, size=12).astype(np.int8)
        assignments.append(
            DeviceAssignment(
                f"d{i:04d}", "Std", 12, dataset=DeviceDataset(f"d{i:04d}", features, labels)
            )
        )
    return GradeExecutionPlan(
        grade="Std",
        assignments=assignments,
        n_actors=n_actors,
        bundle=ResourceBundle(cpus=1, memory_gb=1),
        flow=standard_fl_flow(epochs=2, batch_size=8),
        feature_dim=FEATURE_DIM,
        numeric=True,
    )


def run_unsharded(reference: bool = False, n_rounds: int = N_ROUNDS, collect: bool = True):
    """Drive ``n_rounds`` with FedAvg feedback on one logical tier.

    ``reference=True`` runs the per-device reference model on the
    per-event kernel loop.  Returns ``(per_round_outcomes,
    weights_history, round_results)`` where outcomes are in emission
    order.
    """
    sim = Simulator()
    tier = ReferenceLogicalSimulation if reference else LogicalSimulation
    logical = tier(sim, K8sCluster(NODES), COST, streams=RandomStreams(SEED))
    plan = make_numeric_plan()
    per_round, weights_history = [], []

    def driver():
        yield sim.process(logical.prepare([plan]))
        weights, bias = np.zeros(FEATURE_DIM), 0.0
        for round_index in range(1, n_rounds + 1):
            outcomes = []
            yield sim.process(
                logical.run_round(
                    round_index, weights, bias, MODEL_BYTES, CallbackSink(outcomes.append) if collect else None
                )
            )
            round_result = logical.rounds[-1]
            if not collect:
                outcomes = round_result.all_outcomes()
            per_round.append(outcomes)
            weights, bias = fedavg([o.update for o in outcomes])
            weights_history.append((weights, bias))

    sim.process(driver())
    sim.run(batch=not reference)
    logical.teardown()
    return per_round, weights_history, logical.rounds


def run_sharded(n_shards: int, n_rounds: int = N_ROUNDS):
    return ShardedLogicalSimulation(NODES, COST, n_shards=n_shards, seed=SEED).run_rounds(
        [make_numeric_plan()],
        n_rounds=n_rounds,
        model_bytes=MODEL_BYTES,
        global_weights=np.zeros(FEATURE_DIM),
        global_bias=0.0,
        collect_outcomes=True,
    )


def assert_outcomes_identical(reference, candidate):
    assert len(reference) == len(candidate)
    for a, b in zip(reference, candidate):
        assert a.device_id == b.device_id
        assert a.finished_at == b.finished_at  # bit-identical floats
        assert a.payload_bytes == b.payload_bytes
        assert a.n_samples == b.n_samples
        assert a.update is not None and b.update is not None
        assert a.update.weights.tobytes() == b.update.weights.tobytes()
        assert np.float64(a.update.bias).tobytes() == np.float64(b.update.bias).tobytes()


@pytest.fixture(scope="module")
def generator_reference():
    return run_unsharded(reference=True)


class TestBatchedNumericEquivalence:
    def test_batched_path_bit_identical(self, generator_reference):
        ref_rounds, ref_weights, ref_results = generator_reference
        bat_rounds, bat_weights, bat_results = run_unsharded()
        for ref, bat in zip(ref_rounds, bat_rounds):
            assert_outcomes_identical(ref, bat)
        for (rw, rb), (bw, bb) in zip(ref_weights, bat_weights):
            assert rw.tobytes() == bw.tobytes()
            assert np.float64(rb).tobytes() == np.float64(bb).tobytes()
        for ref, bat in zip(ref_results, bat_results):
            assert ref.started_at == bat.started_at
            assert ref.finished_at == bat.finished_at

    def test_columnar_blocks_materialize_identically(self, generator_reference):
        ref_rounds, ref_weights, _ = generator_reference
        col_rounds, col_weights, col_results = run_unsharded(collect=False)
        assert all(result.columnar and not result.outcomes for result in col_results)
        for ref, col in zip(ref_rounds, col_rounds):
            assert_outcomes_identical(ref, col)
        for (rw, rb), (cw, cb) in zip(ref_weights, col_weights):
            assert rw.tobytes() == cw.tobytes()
            assert rb == cb

    def test_columnar_fedavg_inputs_match_updates(self):
        _, _, col_results = run_unsharded(collect=False, n_rounds=1)
        weights, biases, n_samples = col_results[0].fedavg_inputs()
        materialized = col_results[0].all_outcomes()
        assert weights.shape == (N_DEVICES, FEATURE_DIM)
        for row, outcome in enumerate(materialized):
            assert weights[row].tobytes() == outcome.update.weights.tobytes()
            assert float(biases[row]) == outcome.update.bias
            assert int(n_samples[row]) == outcome.n_samples


class TestShardedNumericEquivalence:
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_sharded_bit_identical_across_rounds(self, generator_reference, n_shards):
        ref_rounds, ref_weights, ref_results = generator_reference
        result = run_sharded(n_shards)
        assert len(result.rounds) == N_ROUNDS
        assert len(result.weights_history) == N_ROUNDS
        for round_pos in range(N_ROUNDS):
            reference = sorted(
                ref_rounds[round_pos], key=lambda o: (o.finished_at, o.device_id)
            )
            assert_outcomes_identical(reference, result.rounds[round_pos].outcomes)
            rw, rb = ref_weights[round_pos]
            sw, sb = result.weights_history[round_pos]
            assert rw.tobytes() == sw.tobytes()
            assert np.float64(rb).tobytes() == np.float64(sb).tobytes()
            assert result.rounds[round_pos].started_at == ref_results[round_pos].started_at
            assert result.rounds[round_pos].finished_at == ref_results[round_pos].finished_at
        assert result.global_weights.tobytes() == ref_weights[-1][0].tobytes()

    def test_shard_counts_agree_with_each_other(self):
        metrics = {
            n_shards: run_sharded(n_shards, n_rounds=2).metrics() for n_shards in (1, 2, 4)
        }
        assert metrics[1] == metrics[2] == metrics[4]


class TestMixedPlanRound:
    """Regression: the batched/pooled choice is made per plan, not per round.

    One numeric plan and one time-only plan share a round; the numeric
    plan must flow through the vectorized wave path (producing updates)
    while the time-only plan keeps its pooled-deadline columnar path, on
    both the unsharded and sharded tiers.
    """

    @staticmethod
    def _mixed_plans():
        numeric = make_numeric_plan(n_devices=8, n_actors=4)
        time_only_assignments = [
            DeviceAssignment(f"t{i:04d}", "Bulk", 10) for i in range(12)
        ]
        time_only = GradeExecutionPlan(
            grade="Bulk",
            assignments=time_only_assignments,
            n_actors=4,
            bundle=ResourceBundle(cpus=1, memory_gb=1),
            flow=standard_fl_flow(),
            numeric=False,
        )
        return [numeric, time_only]

    def _run_unsharded(self, reference: bool = False):
        sim = Simulator()
        tier = ReferenceLogicalSimulation if reference else LogicalSimulation
        logical = tier(sim, K8sCluster(NODES), COST, streams=RandomStreams(SEED))

        def driver():
            yield sim.process(logical.prepare(self._mixed_plans()))
            yield sim.process(
                logical.run_round(1, np.zeros(FEATURE_DIM), 0.0, MODEL_BYTES, None)
            )

        sim.process(driver())
        sim.run(batch=not reference)
        logical.teardown()
        return logical.rounds[0]

    def test_unsharded_mixed_round_matches_generator(self):
        reference = self._run_unsharded(reference=True)
        batched = self._run_unsharded()
        assert batched.n_devices == reference.n_devices == 20
        # Both plans went columnar, and only the numeric one carries updates.
        assert len(batched.columnar) == 2
        update_flags = {
            block.plan.numeric: block.update_weights is not None
            for block in batched.columnar
        }
        assert update_flags == {True: True, False: False}
        ref_sorted = sorted(
            reference.all_outcomes(), key=lambda o: (o.finished_at, o.device_id)
        )
        bat_sorted = sorted(
            batched.all_outcomes(), key=lambda o: (o.finished_at, o.device_id)
        )
        for a, b in zip(ref_sorted, bat_sorted):
            assert a.device_id == b.device_id
            assert a.finished_at == b.finished_at
            assert (a.update is None) == (b.update is None)
            if a.update is not None:
                assert a.update.weights.tobytes() == b.update.weights.tobytes()
        assert reference.finished_at == batched.finished_at

    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_sharded_mixed_round(self, n_shards):
        reference = self._run_unsharded(reference=True)
        result = ShardedLogicalSimulation(NODES, COST, n_shards=n_shards, seed=SEED).run_rounds(
            self._mixed_plans(),
            n_rounds=1,
            model_bytes=MODEL_BYTES,
            global_weights=np.zeros(FEATURE_DIM),
            collect_outcomes=True,
        )
        merged = result.rounds[0]
        assert merged.n_devices == 20
        # The numeric plan's updates fed the merged global model.
        assert len(result.weights_history) == 1
        numeric_updates = [o.update for o in merged.outcomes if o.update is not None]
        assert len(numeric_updates) == 8
        expected_weights, expected_bias = fedavg(numeric_updates)
        assert result.global_weights.tobytes() == expected_weights.tobytes()
        assert result.global_bias == expected_bias
        ref_sorted = sorted(
            reference.all_outcomes(), key=lambda o: (o.finished_at, o.device_id)
        )
        for a, b in zip(ref_sorted, merged.outcomes):
            assert a.device_id == b.device_id
            assert a.finished_at == b.finished_at
