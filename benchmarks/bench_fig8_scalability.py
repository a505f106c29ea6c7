"""Bench: regenerate Fig. 8 (single-round time vs scale, three simulators).

Also validates the SimDC closed-form round model against an actual
event-driven round of the logical tier at a mid scale, so the sweep's
numbers are anchored to the executable platform rather than free-floating
constants — and measures the batched/sharded wave schedule against the
per-device reference model (:mod:`repro.reference`) at the paper's
100k-device scale (``test_fig8_batched_sharded_speedup``).
"""

import time

import numpy as np
from conftest import full_scale

from repro.baselines import SimDCRoundModel
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
from repro.experiments import format_fig8, run_fig8_scalability
from repro.ml import standard_fl_flow
from repro.ml.fedavg import FedAvgPartial
from repro.reference import ReferenceLogicalSimulation
from repro.simkernel import RandomStreams, Simulator

#: Numeric-sweep workload: small shards and a modest model keep the ML math
#: per device light, so the comparison stresses execution strategy (per
#: device generators vs stacked waves), not BLAS throughput.
NUMERIC_FEATURE_DIM = 64
NUMERIC_RECORDS = 8
NUMERIC_FIELDS = 4
NUMERIC_EPOCHS = 1


def _sweep_cost_model(total_cores: int) -> LogicalCostModel:
    model = SimDCRoundModel(total_cores=total_cores)
    return LogicalCostModel(
        alpha={"Std": model.device_round_s},
        actor_startup=0.0,
        runner_setup=model.runner_setup_s,
        download_latency=model.download_s / 2,
        download_bandwidth_bps=1e18,
    )


def _sweep_plan(n_devices: int, total_cores: int) -> GradeExecutionPlan:
    return GradeExecutionPlan(
        grade="Std",
        assignments=[DeviceAssignment(f"d{i}", "Std", 10) for i in range(n_devices)],
        n_actors=total_cores,
        bundle=ResourceBundle(cpus=1, memory_gb=1),
        flow=standard_fl_flow(),
        numeric=False,
    )


def event_driven_round_time(
    n_devices: int,
    total_cores: int = 200,
    n_shards: int = 1,
    batch: bool = False,
) -> float:
    """One actual simulated round of the logical tier at ``n_devices``.

    ``batch=False, n_shards=1`` (the default) is the per-device reference
    model on the per-event kernel loop: every device advances through
    generator processes and two heap events.  ``batch=True`` switches to
    batched kernel stepping plus the pooled columnar round; ``n_shards > 1`` additionally partitions the
    plan over multiprocessing workers.  All configurations report the same
    simulated round time — the sharded path is bit-identical at
    ``n_shards=1`` and metric-identical beyond.
    """
    nodes = [NodeSpec(cpus=20, memory_gb=30)] * (total_cores // 20)
    cost = _sweep_cost_model(total_cores)
    if batch or n_shards > 1:
        sharded = ShardedLogicalSimulation(nodes, cost, n_shards=n_shards)
        result = sharded.run_rounds(
            [_sweep_plan(n_devices, total_cores)],
            n_rounds=1,
            model_bytes=0,
            collect_outcomes=False,
        )
        # The shard clock starts at 0, so the last completion time equals
        # the reference model's prepare + round elapsed measure.
        return result.rounds[0].finished_at

    sim = Simulator()
    cluster = K8sCluster(nodes)
    logical = ReferenceLogicalSimulation(sim, cluster, cost)
    plan = _sweep_plan(n_devices, total_cores)

    def run():
        start = sim.now
        yield sim.process(logical.prepare([plan]))
        yield sim.process(logical.run_round(1, None, 0.0, 0, CallbackSink(lambda o: None)))
        return sim.now - start

    proc = sim.process(run())
    sim.run()
    logical.teardown()
    return proc.result


def _numeric_sweep_plan(n_devices: int, total_cores: int) -> GradeExecutionPlan:
    rng = np.random.default_rng(12345)
    features = rng.integers(
        0, NUMERIC_FEATURE_DIM, size=(n_devices, NUMERIC_RECORDS, NUMERIC_FIELDS)
    ).astype(np.int32)
    labels = rng.integers(0, 2, size=(n_devices, NUMERIC_RECORDS)).astype(np.int8)
    return GradeExecutionPlan(
        grade="Std",
        assignments=[
            DeviceAssignment(
                f"d{i}",
                "Std",
                NUMERIC_RECORDS,
                dataset=DeviceDataset(f"d{i}", features[i], labels[i]),
            )
            for i in range(n_devices)
        ],
        n_actors=total_cores,
        bundle=ResourceBundle(cpus=1, memory_gb=1),
        flow=standard_fl_flow(epochs=NUMERIC_EPOCHS),
        feature_dim=NUMERIC_FEATURE_DIM,
        numeric=True,
    )


def numeric_round_result(n_devices: int, total_cores: int = 200, batch: bool = False) -> dict:
    """One actual *numeric* round: ML training executes inside the round.

    ``batch=False`` is the reference model — one generator per actor, each
    device running its own per-device SGD.  ``batch=True`` drives the same plan
    through the wave schedule, training each wave as one stacked weight
    matrix.  Returns the simulated round time plus the FedAvg-aggregated
    global model, so callers can assert the fast path changed *nothing*
    about the simulation's results.
    """
    nodes = [NodeSpec(cpus=20, memory_gb=30)] * (total_cores // 20)
    cost = _sweep_cost_model(total_cores)
    sim = Simulator()
    tier = LogicalSimulation if batch else ReferenceLogicalSimulation
    logical = tier(sim, K8sCluster(nodes), cost, streams=RandomStreams(0))
    plan = _numeric_sweep_plan(n_devices, total_cores)

    def run():
        start = sim.now
        yield sim.process(logical.prepare([plan]))
        yield sim.process(
            logical.run_round(1, np.zeros(NUMERIC_FEATURE_DIM), 0.0, 4096, None)
        )
        return sim.now - start

    proc = sim.process(run())
    sim.run(batch=batch)
    weights, biases, n_samples = logical.rounds[0].fedavg_inputs()
    global_weights, global_bias = FedAvgPartial.from_arrays(weights, biases, n_samples).finalize()
    logical.teardown()
    return {
        "round_s": proc.result,
        "global_weights": global_weights,
        "global_bias": global_bias,
    }


def measure_numeric_sweep_speedup(
    n_devices: int, total_cores: int = 200, repeats: int = 2
) -> dict:
    """Wall-clock comparison of reference (legacy) vs batched *numeric* rounds.

    Plain-function form so ``ci_gate.py`` can reuse it.  ``identical`` is
    true only when both paths report the same simulated round time AND
    bit-identical FedAvg-aggregated global weights.
    """

    def best(batch: bool) -> tuple[float, dict]:
        walls, result = [], None
        for _ in range(repeats):
            start = time.perf_counter()
            result = numeric_round_result(n_devices, total_cores, batch=batch)
            walls.append(time.perf_counter() - start)
        return min(walls), result

    legacy_wall, legacy = best(batch=False)
    batched_wall, batched = best(batch=True)
    identical = (
        legacy["round_s"] == batched["round_s"]
        and legacy["global_weights"].tobytes() == batched["global_weights"].tobytes()
        and legacy["global_bias"] == batched["global_bias"]
    )
    return {
        "n_devices": n_devices,
        "legacy_wall_s": legacy_wall,
        "batched_wall_s": batched_wall,
        "legacy_round_s": legacy["round_s"],
        "batched_round_s": batched["round_s"],
        "batched_speedup": legacy_wall / batched_wall,
        "identical": identical,
    }


def measure_sweep_speedup(n_devices: int, total_cores: int = 200, repeats: int = 2) -> dict:
    """Wall-clock comparison of the reference (legacy) vs batched/sharded sweep.

    Plain-function form so ``ci_gate.py`` can reuse it.  Returns wall times
    (best of ``repeats``), the simulated round times (for the identity
    check) and the speedups of each new configuration over legacy.
    """

    def best(**kwargs) -> tuple[float, float]:
        walls, round_time = [], None
        for _ in range(repeats):
            start = time.perf_counter()
            round_time = event_driven_round_time(n_devices, total_cores, **kwargs)
            walls.append(time.perf_counter() - start)
        return min(walls), round_time

    legacy_wall, legacy_round = best()
    batched_wall, batched_round = best(batch=True, n_shards=1)
    sharded_wall, sharded_round = best(batch=True, n_shards=4)
    return {
        "n_devices": n_devices,
        "legacy_wall_s": legacy_wall,
        "batched_wall_s": batched_wall,
        "sharded4_wall_s": sharded_wall,
        "legacy_round_s": legacy_round,
        "batched_round_s": batched_round,
        "sharded4_round_s": sharded_round,
        "batched_speedup": legacy_wall / batched_wall,
        "sharded4_speedup": legacy_wall / sharded_wall,
        "best_speedup": legacy_wall / min(batched_wall, sharded_wall),
    }


def test_fig8_scalability(benchmark, persist_result):
    result = benchmark.pedantic(run_fig8_scalability, rounds=1, iterations=1)
    # Shape assertions from the paper's narrative.
    assert result.simdc[0] > result.fedscale[0]
    assert result.simdc[0] > result.federatedscope[0]
    assert result.crossover_scale() <= 10_000
    persist_result("fig8_scalability", format_fig8(result))


def test_fig8_event_driven_anchor(benchmark, persist_result):
    """The closed-form SimDC model matches the executable logical tier."""
    scale = 10_000 if full_scale() else 2_000
    measured = benchmark.pedantic(
        event_driven_round_time, kwargs={"n_devices": scale}, rounds=1, iterations=1
    )
    predicted = SimDCRoundModel().round_time(scale)
    assert abs(measured - predicted) / predicted < 0.25
    persist_result(
        "fig8_event_driven_anchor",
        f"Fig. 8 anchor at n={scale}: event-driven {measured:.1f}s "
        f"vs closed-form {predicted:.1f}s",
    )


def test_fig8_numeric_batched_speedup(persist_result):
    """Vectorized numeric rounds beat per-device generators at 10k devices.

    The paper's Fig. 9/10-style federated sweeps execute the ML round
    inside the simulator; this is the workload the batched numeric path
    exists for.  The gate demands >=3x at 10k devices with *zero* change
    to simulated results (round time and aggregated global weights are
    compared bit-for-bit against the generator path).
    """
    scale = 10_000
    stats = measure_numeric_sweep_speedup(scale)
    assert stats["identical"], "batched numeric path changed the simulated results"
    assert stats["batched_speedup"] >= 3.0
    persist_result(
        "fig8_numeric_batched_speedup",
        f"Fig. 8 numeric sweep at n={scale} (simulated round "
        f"{stats['legacy_round_s']:.1f}s, results bit-identical)\n"
        f"  legacy per-device generators : {stats['legacy_wall_s'] * 1e3:7.1f} ms\n"
        f"  batched stacked waves        : {stats['batched_wall_s'] * 1e3:7.1f} ms "
        f"({stats['batched_speedup']:.1f}x, target >=3x)",
    )


def test_fig8_batched_sharded_speedup(persist_result):
    """Batched stepping + sharding beat the legacy path at the 100k sweep.

    At full scale this is the paper's 100k-device non-numeric sweep; the
    default CI scale keeps the same shape at 20k devices.  On multi-core
    runners ``n_shards=4`` wins outright; on single-core containers the
    fork overhead makes the in-process batched path the best configuration,
    so the >=5x gate applies to the best of the two (both are reported).
    """
    scale = 100_000 if full_scale() else 20_000
    stats = measure_sweep_speedup(scale)
    # The fast paths must not change the simulated result: n_shards=1 is
    # bit-identical, n_shards=4 metric-identical.
    assert stats["batched_round_s"] == stats["legacy_round_s"]
    assert stats["sharded4_round_s"] == stats["legacy_round_s"]
    assert stats["best_speedup"] >= 5.0
    persist_result(
        "fig8_batched_sharded_speedup",
        f"Fig. 8 non-numeric sweep at n={scale} (simulated round "
        f"{stats['legacy_round_s']:.1f}s)\n"
        f"  legacy per-event   : {stats['legacy_wall_s'] * 1e3:7.1f} ms\n"
        f"  batched, 1 shard   : {stats['batched_wall_s'] * 1e3:7.1f} ms "
        f"({stats['batched_speedup']:.1f}x)\n"
        f"  batched, 4 shards  : {stats['sharded4_wall_s'] * 1e3:7.1f} ms "
        f"({stats['sharded4_speedup']:.1f}x)\n"
        f"  best speedup       : {stats['best_speedup']:.1f}x (target >=5x)",
    )
